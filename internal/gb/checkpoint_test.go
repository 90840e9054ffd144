package gb

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"gbpolar/internal/obs"
)

// reseal replaces a snapshot body's trailing CRC: the checksum is
// unkeyed, so anyone can make a crafted body pass it.
func reseal(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// hugePayloadCount is a real 85-byte snapshot whose payload count is
// rewritten to 0xF0000000 and whose CRC is resealed: a decoder that
// trusts the count reserves 32 GiB for it.
func hugePayloadCount() []byte {
	ck := &Checkpoint{Phase: PhaseRadii, Processes: 2, Live: []int{0, 1}, Payload: []float64{1}}
	enc := ck.Encode()
	body := enc[:len(enc)-4]
	// The count precedes the payload floats and the one-byte Obs flag.
	off := len(body) - 1 - 8*len(ck.Payload) - 4
	binary.LittleEndian.PutUint32(body[off:], 0xF0000000)
	return reseal(body)
}

func TestDecodeCheckpointBoundsCounts(t *testing.T) {
	data := hugePayloadCount()
	if len(data) != 85 {
		t.Fatalf("crafted snapshot is %d bytes, want 85", len(data))
	}
	if _, err := DecodeCheckpoint(data); err == nil {
		t.Error("snapshot with a payload count past its bytes decoded without error")
	}
}

// FuzzDecodeCheckpoint feeds mutated snapshot bodies, resealed so they get
// past the CRC, to the decoder. It must never panic or over-allocate, and
// whatever it accepts must re-encode to bytes that decode to the same
// encoding again.
func FuzzDecodeCheckpoint(f *testing.F) {
	seeds := []*Checkpoint{
		{Phase: PhaseIntegrals, Processes: 3, Live: []int{0, 2}, Lost: []int{1}, ConfigTag: 7,
			EpsBorn: 0.7, EpsEpol: 0.7, Payload: []float64{1.5, -2, 0}},
		{Phase: PhaseEpol, Processes: 1, Live: []int{0}, Payload: []float64{3}, Obs: &obs.CounterSnapshot{
			Counters:   map[string]int64{"pairs.born.near": 12},
			Hists:      map[string]obs.HistState{"redo.iterations": {Count: 2, Sum: 1, Buckets: []int64{1, 1}}},
			SpanCounts: map[string]int64{"approx-epol": 2},
		}},
	}
	for _, ck := range seeds {
		enc := ck.Encode()
		f.Add(enc[:len(enc)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		ck, err := DecodeCheckpoint(reseal(body))
		if err != nil {
			return
		}
		enc := ck.Encode()
		again, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if string(again.Encode()) != string(enc) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
