package bench

import "passcloud/internal/fabric"

// The live-reshard harness: run the pinned commit workload through P3 in
// three phases — warm-up on the starting topology, a middle batch committed
// *while* Deployment.Reshard grows the fabric, and a post-reshard batch on the
// grown topology. The run fails outright if the oracle finds a single
// provenance item lost, duplicated or misplaced, and the digest of every object's read-back provenance must be
// byte-identical to a static deployment of the target size.

// ReshardRun is one configuration of the reshard harness.
type ReshardRun struct {
	CopiedItems int
	Epoch       int
	ProvDigest  string
}

// ReshardUnderLoad runs one configuration on a clock live at scale. The
// transaction set splits into three equal phases; unless toK is fromK the
// fabric grows fromK→toK concurrently with phase B's commits.
func ReshardUnderLoad(seed int64, txns, bundlesPerTxn, workers, clientConns int, scale float64, fromK, toK int) (ReshardRun, error) {
	if clientConns <= 0 {
		clientConns = 64
	}
	var run ReshardRun
	set := commitPipeTxns(seed, txns, bundlesPerTxn)
	f, err := liveFabric(seed, scale, 0, fabric.Config{Topology: kWay(fromK), Workers: workers})
	if err != nil {
		return run, err
	}
	defer f.Close()
	f.Start()

	// Three equal phases: warm-up on the starting topology, ingest while the
	// fabric reshards underneath it, and ingest on the grown topology.
	third := len(set) / 3
	if _, err := runPhase(f, clientConns, set[:third], fromK); err != nil {
		return run, err
	}
	during, err := runPhase(f, clientConns, set[third:2*third], toK)
	if err != nil {
		return run, err
	}
	if _, err := runPhase(f, clientConns, set[2*third:], toK); err != nil {
		return run, err
	}
	run.CopiedItems, run.Epoch = during.CopiedItems, during.Epoch

	// The oracle (nothing lost, duplicated or misplaced), and the digest a
	// static deployment of the target size must reproduce.
	_, run.ProvDigest, err = finish(f, set)
	return run, err
}
