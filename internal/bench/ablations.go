package bench

import (
	"fmt"
	"math"
	"time"

	"gbpolar/internal/gb"
	"gbpolar/internal/geom"
	"gbpolar/internal/molecule"
	"gbpolar/internal/nblist"
	"gbpolar/internal/octree"
	"gbpolar/internal/surface"
)

// ablationMolecule is the mid-size workload the design-choice ablations
// run on.
func ablationMolecule() *molecule.Molecule {
	return molecule.Exactly(molecule.Globule("ablation", 4000, 2026), 4000, 2026)
}

// ablationDivision contrasts node-based and atom-based work division
// (§IV): time and error versus the process count.
func ablationDivision(o Options) (*Table, error) {
	mol := ablationMolecule()
	t := &Table{
		ID:    "Ablation: work division",
		Title: "Node–node vs atom–node division: modeled time and error vs P",
		Notes: []string{
			"§IV: node-based error is P-invariant; atom-based error varies with P",
		},
		Header: []string{"P", "node-node time", "node-node err %", "atom-node time", "atom-node err %"},
	}
	ref, err := systemFor(mol, gb.DefaultParams())
	if err != nil {
		return nil, err
	}
	naive := ref.naiveResult()
	atomParams := gb.DefaultParams()
	atomParams.Division = gb.AtomNode
	atomEntry, err := systemFor(mol, atomParams)
	if err != nil {
		return nil, err
	}
	for _, P := range []int{1, 2, 4, 8, 12} {
		nodeRes, err := ref.sys.Run(gb.RunSpec{Processes: P})
		if err != nil {
			return nil, err
		}
		atomRes, err := atomEntry.sys.Run(gb.RunSpec{Processes: P})
		if err != nil {
			return nil, err
		}
		nb, err := priceOct(o, ref.sys, nodeRes)
		if err != nil {
			return nil, err
		}
		ab, err := priceOct(o, atomEntry.sys, atomRes)
		if err != nil {
			return nil, err
		}
		errPct := func(e float64) string {
			return fmt.Sprintf("%+.4f", 100*(e-naive.Energy)/math.Abs(naive.Energy))
		}
		t.AddRow(fmt.Sprintf("%d", P),
			fmtSeconds(nb.TotalSeconds), errPct(nodeRes.Epol),
			fmtSeconds(ab.TotalSeconds), errPct(atomRes.Epol))
	}
	return t, nil
}

// ablationMath measures approximate math on/off: real wall-clock ratio of
// the serial kernels and the induced energy shift (§V-C: ≈1.42× faster,
// errors shifted).
func ablationMath(o Options) (*Table, error) {
	mol := ablationMolecule()
	exactEntry, err := systemFor(mol, gb.DefaultParams())
	if err != nil {
		return nil, err
	}
	approxParams := gb.DefaultParams()
	approxParams.Math = gb.ApproxMath
	approxEntry, err := systemFor(mol, approxParams)
	if err != nil {
		return nil, err
	}
	// Repeat the serial run a few times and take the best wall time.
	best := func(sys *gb.System) (time.Duration, float64, error) {
		bestD := time.Duration(math.MaxInt64)
		var e float64
		for i := 0; i < 3; i++ {
			r, err := sys.Run(gb.RunSpec{})
			if err != nil {
				return 0, 0, err
			}
			if r.Wall < bestD {
				bestD = r.Wall
			}
			e = r.Epol
		}
		return bestD, e, nil
	}
	exactD, exactE, err := best(exactEntry.sys)
	if err != nil {
		return nil, err
	}
	approxD, approxE, err := best(approxEntry.sys)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation: approximate math",
		Title:  "Fast inverse-sqrt/exp kernels vs exact math (serial, measured wall time)",
		Notes:  []string{"paper: approximate math ≈1.42× faster with a 4–5% error shift"},
		Header: []string{"Math", "Wall time", "Speedup", "Epol (kcal/mol)", "shift %"},
	}
	t.AddRow("exact", fmtDur(exactD), "1.00", fmt.Sprintf("%.2f", exactE), "0")
	t.AddRow("approximate", fmtDur(approxD),
		fmt.Sprintf("%.2f", float64(exactD)/float64(approxD)),
		fmt.Sprintf("%.2f", approxE),
		fmt.Sprintf("%+.4f", 100*(approxE-exactE)/math.Abs(exactE)))
	return t, nil
}

// ablationLeaf sweeps the octree leaf capacities (DESIGN.md §6.1).
func ablationLeaf(o Options) (*Table, error) {
	mol := ablationMolecule()
	surf, err := surface.Build(mol, surface.DefaultConfig())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation: leaf capacity",
		Title:  "Octree leaf sizes vs interaction work (serial run)",
		Header: []string{"Leaf atoms", "Leaf q-points", "Total ops", "Modeled time", "Tree nodes (T_A)"},
	}
	for _, leaf := range []int{2, 4, 8, 16, 32, 64} {
		params := gb.DefaultParams()
		params.LeafAtoms = leaf
		params.LeafQPoints = leaf * 4
		sys, err := gb.NewSystem(mol, surf, params)
		if err != nil {
			return nil, err
		}
		res, err := sys.Run(gb.RunSpec{})
		if err != nil {
			return nil, err
		}
		b, err := priceOct(o, sys, res)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", leaf), fmt.Sprintf("%d", leaf*4),
			fmt.Sprintf("%d", res.TotalOps()), fmtSeconds(b.TotalSeconds),
			fmt.Sprintf("%d", sys.TA.NumNodes()))
	}
	return t, nil
}

// ablationBinning sweeps the Born-radius class width of APPROX-Epol
// (DESIGN.md §6.5) at the working ε = 0.9.
func ablationBinning(o Options) (*Table, error) {
	mol := ablationMolecule()
	ref, err := systemFor(mol, gb.DefaultParams())
	if err != nil {
		return nil, err
	}
	naive := ref.naiveResult()
	t := &Table{
		ID:     "Ablation: radius binning",
		Title:  "Born-radius class width vs energy error and work (ε_Epol = 0.9)",
		Notes:  []string{"0.9 is the paper's ln(1+ε) bin width; the library defaults to 0.2"},
		Header: []string{"Bin eps", "Epol err %", "Total ops"},
	}
	for _, binEps := range []float64{0.9, 0.4, 0.2, 0.1, 0.05} {
		params := gb.DefaultParams()
		params.Accuracy.BinWidth = binEps
		entry, err := systemFor(mol, params)
		if err != nil {
			return nil, err
		}
		res, err := entry.sys.Run(gb.RunSpec{})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.2f", binEps),
			fmt.Sprintf("%+.4f", 100*(res.Epol-naive.Energy)/math.Abs(naive.Energy)),
			fmt.Sprintf("%d", res.TotalOps()))
	}
	return t, nil
}

// ablationStealing contrasts dynamic (work-stealing) load balance inside
// a node with the static division a pure-MPI layout gets (§IV-A).
func ablationStealing(o Options) (*Table, error) {
	mol := ablationMolecule()
	entry, err := systemFor(mol, gb.DefaultParams())
	if err != nil {
		return nil, err
	}
	hyb, err := entry.sys.Run(gb.RunSpec{Processes: 1, ThreadsPerProcess: 12}) // one rank, 12 stealing workers
	if err != nil {
		return nil, err
	}
	mpi, err := entry.sys.Run(gb.RunSpec{Processes: 12}) // 12 static single-thread ranks
	if err != nil {
		return nil, err
	}
	imbalance := func(ops []int64) (float64, int64) {
		maxOps, sum := int64(0), int64(0)
		for _, o := range ops {
			sum += o
			if o > maxOps {
				maxOps = o
			}
		}
		mean := float64(sum) / float64(len(ops))
		return float64(maxOps) / mean, maxOps
	}
	hi, hmax := imbalance(hyb.PerCoreOps)
	mi, mmax := imbalance(mpi.PerCoreOps)
	hb, err := priceOct(o, entry.sys, hyb)
	if err != nil {
		return nil, err
	}
	mb, err := priceOct(o, entry.sys, mpi)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Ablation: load balancing",
		Title:  "Work stealing (dynamic) vs static division on 12 cores",
		Notes:  []string{"imbalance = max per-core ops / mean per-core ops; modeled time follows the max"},
		Header: []string{"Scheme", "Imbalance", "Max core ops", "Steals", "Modeled time"},
	}
	t.AddRow("work stealing (1×12)", fmt.Sprintf("%.3f", hi),
		fmt.Sprintf("%d", hmax), fmt.Sprintf("%d", hyb.Steals), fmtSeconds(hb.TotalSeconds))
	t.AddRow("static ranks (12×1)", fmt.Sprintf("%.3f", mi),
		fmt.Sprintf("%d", mmax), "0", fmtSeconds(mb.TotalSeconds))
	return t, nil
}

// ablationDynamic contrasts the static cross-rank division with the
// coordinator-served dynamic chunks of RunMPIDynamic (the paper's
// proposed future extension) on a skew-cost workload.
func ablationDynamic(o Options) (*Table, error) {
	dense := molecule.Exactly(molecule.Globule("dense", 3000, 5), 3000, 5)
	sparse := molecule.Helix("sparse", 1000, 6).ApplyTransform(
		geom.Translate(geom.V(70, 0, 0)))
	mol := molecule.Merge("skewed", dense, sparse)
	entry, err := systemFor(mol, gb.DefaultParams())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Ablation: cross-rank dynamic balancing",
		Title: "Static segments vs coordinator-served dynamic chunks (skewed workload)",
		Notes: []string{
			"the paper's conclusion proposes explicit dynamic balancing across nodes;",
			"dynamic gives up one rank to coordination and pays chunk-protocol messages",
		},
		Header: []string{"Scheme", "Compute ranks", "Imbalance", "Modeled time", "P2P msgs"},
	}
	imbalance := func(ops []int64) float64 {
		maxOps, sum, n := int64(0), int64(0), 0
		for _, op := range ops {
			if op == 0 {
				continue
			}
			sum += op
			n++
			if op > maxOps {
				maxOps = op
			}
		}
		if sum == 0 {
			return 1
		}
		return float64(maxOps) * float64(n) / float64(sum)
	}
	for _, computeRanks := range []int{4, 8, 11} {
		static, err := entry.sys.Run(gb.RunSpec{Processes: computeRanks})
		if err != nil {
			return nil, err
		}
		dynamic, err := entry.sys.RunMPIDynamic(computeRanks + 1)
		if err != nil {
			return nil, err
		}
		sb, err := priceOct(o, entry.sys, static)
		if err != nil {
			return nil, err
		}
		db, err := priceOct(o, entry.sys, dynamic)
		if err != nil {
			return nil, err
		}
		t.AddRow("static", fmt.Sprintf("%d", computeRanks),
			fmt.Sprintf("%.3f", imbalance(static.PerCoreOps)),
			fmtSeconds(sb.TotalSeconds), fmt.Sprintf("%d", static.Traffic.P2PMessages))
		t.AddRow("dynamic", fmt.Sprintf("%d (+1 coord)", computeRanks),
			fmt.Sprintf("%.3f", imbalance(dynamic.PerCoreOps)),
			fmtSeconds(db.TotalSeconds), fmt.Sprintf("%d", dynamic.Traffic.P2PMessages))
	}
	return t, nil
}

// ablationIntegral contrasts the r⁶ (Eq. 4) and r⁴ (Eq. 3) Born-radius
// forms: accuracy of the energy against the r⁶ naive reference, and the
// systematic radius inflation of the Coulomb-field approximation.
func ablationIntegral(o Options) (*Table, error) {
	mol := ablationMolecule()
	ref, err := systemFor(mol, gb.DefaultParams())
	if err != nil {
		return nil, err
	}
	naive := ref.naiveResult()
	t := &Table{
		ID:     "Ablation: r6 vs r4 Born integral",
		Title:  "Surface r⁶ (Eq. 4) vs Coulomb-field r⁴ (Eq. 3)",
		Notes:  []string{"r⁴ systematically overestimates buried radii (Grycuk), shrinking |Epol|"},
		Header: []string{"Integral", "Epol (kcal/mol)", "vs r6-naive %", "mean Born radius"},
	}
	for _, integral := range []gb.Integral{gb.IntegralR6, gb.IntegralR4} {
		params := gb.DefaultParams()
		params.Integral = integral
		entry, err := systemFor(mol, params)
		if err != nil {
			return nil, err
		}
		res, err := entry.sys.Run(gb.RunSpec{})
		if err != nil {
			return nil, err
		}
		mean := 0.0
		for _, r := range res.Born {
			mean += r
		}
		mean /= float64(len(res.Born))
		t.AddRow(integral.String(), fmt.Sprintf("%.2f", res.Epol),
			fmt.Sprintf("%+.3f", 100*(res.Epol-naive.Energy)/math.Abs(naive.Energy)),
			fmt.Sprintf("%.3f", mean))
	}
	return t, nil
}

// ablationNblist reproduces the §II octree-vs-nblist contrast: nonbonded
// list memory grows cubically with the cutoff while octree memory is
// parameter-independent, and list construction slows accordingly.
func ablationNblist(o Options) (*Table, error) {
	mol := ablationMolecule()
	positions := mol.Positions()
	tree := octree.Build(positions, 8)
	t := &Table{
		ID:    "Ablation: octree vs nblist",
		Title: "Memory vs cutoff (§II): nonbonded lists grow cubically, the octree is constant",
		Notes: []string{fmt.Sprintf("%d atoms; octree: %d bytes at every cutoff/ε",
			mol.NumAtoms(), tree.MemoryBytes())},
		Header: []string{"Cutoff Å", "nblist pairs", "nblist bytes", "octree bytes", "ratio"},
	}
	for _, cutoff := range []float64{6, 9, 12, 16, 20, 24} {
		pl, err := nblist.BuildPairList(positions, cutoff, 0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", cutoff),
			fmt.Sprintf("%d", pl.NumPairs()),
			fmt.Sprintf("%d", pl.MemoryBytes()),
			fmt.Sprintf("%d", tree.MemoryBytes()),
			fmt.Sprintf("%.1f", float64(pl.MemoryBytes())/float64(tree.MemoryBytes())))
	}
	return t, nil
}

// ablationDistData contrasts the paper's replicate-everything layout
// (§IV-A) with the distributed-data extension its conclusion proposes:
// per-rank memory versus the bundle traffic and modeled time it costs.
func ablationDistData(o Options) (*Table, error) {
	mol := ablationMolecule()
	entry, err := systemFor(mol, gb.DefaultParams())
	if err != nil {
		return nil, err
	}
	naive := entry.naiveResult()
	t := &Table{
		ID:    "Ablation: distributed data",
		Title: "Replicated data (§IV-A) vs distributed data (conclusion's proposal), 12 ranks",
		Notes: []string{
			"distributed: each rank holds its segment + one transient remote bundle",
		},
		Header: []string{"Layout", "Mem/rank", "P2P bytes", "Modeled time", "Epol err %"},
	}
	const P = 12
	repl, err := entry.sys.Run(gb.RunSpec{Processes: P})
	if err != nil {
		return nil, err
	}
	rb, err := priceOct(o, entry.sys, repl)
	if err != nil {
		return nil, err
	}
	dist, err := entry.sys.RunMPIDistributedData(P)
	if err != nil {
		return nil, err
	}
	db, err := priceOct(o, entry.sys, dist)
	if err != nil {
		return nil, err
	}
	data := entry.sys.DataBytes()
	errPct := func(e float64) string {
		return fmt.Sprintf("%+.4f", 100*(e-naive.Energy)/math.Abs(naive.Energy))
	}
	t.AddRow("replicated", fmt.Sprintf("%.2f MB", float64(data)/(1<<20)),
		"0", fmtSeconds(rb.TotalSeconds), errPct(repl.Epol))
	t.AddRow("distributed", fmt.Sprintf("%.2f MB", float64(2*data/P)/(1<<20)),
		fmt.Sprintf("%d", dist.Traffic.P2PBytes), fmtSeconds(db.TotalSeconds), errPct(dist.Epol))
	return t, nil
}
