package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// relErr is |got − want| / |want|.
func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// checkWithinBound accepts an octree energy within the priced relative
// bound of the exact oracle energy.
func checkWithinBound(what string, got, oracle, bound float64) error {
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return fmt.Errorf("%s: energy %v is not finite", what, got)
	}
	if e := relErr(got, oracle); !(e <= bound) {
		return fmt.Errorf("%s: |E_oct − E_naive|/|E_naive| = %.3g exceeds the priced bound %.3g (E_oct %v, E_naive %v)",
			what, e, bound, got, oracle)
	}
	return nil
}

// epolBits renders an energy's exact bit pattern the way the serving
// API's epol_bits does.
func epolBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// bornCRC32 fingerprints Born radii the way the serving API's
// born_crc32 does: IEEE CRC-32 over the little-endian float64 bytes in
// atom order.
func bornCRC32(born []float64) string {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, b := range born {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(b))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// checkBitwise accepts a served result only if it carries exactly the
// bits a direct run at the same layout produced.
func checkBitwise(what, gotBits, gotCRC, wantBits, wantCRC string) error {
	if gotBits != wantBits || gotCRC != wantCRC {
		return fmt.Errorf("%s: served epol_bits/born_crc32 %s/%s differ from the direct run's %s/%s",
			what, gotBits, gotCRC, wantBits, wantCRC)
	}
	return nil
}

// checkScorePasses accepts docking scores only if every score is finite
// and every pass over the same poses produced the same bits. passes[k]
// maps pose label to ΔEpol.
func checkScorePasses(passes []map[string]float64) error {
	if len(passes) < 2 {
		return fmt.Errorf("dock: %d scoring passes, need at least 2 to compare", len(passes))
	}
	first := passes[0]
	for label, v := range first {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dock: pose %s scored %v, not finite", label, v)
		}
	}
	for k, p := range passes[1:] {
		if len(p) != len(first) {
			return fmt.Errorf("dock: pass %d scored %d poses, pass 0 scored %d", k+1, len(p), len(first))
		}
		for label, v := range p {
			w, ok := first[label]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return fmt.Errorf("dock: pose %s scored %v on pass %d but %v on pass 0", label, v, k+1, w)
			}
		}
	}
	return nil
}
