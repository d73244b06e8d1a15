package bench

import "passcloud/internal/fabric"

// The live-reshard harness: run the pinned commit workload through P3 in
// three phases — warm-up on the starting topology, a middle batch committed
// *while* Deployment.Reshard grows the fabric, and a post-reshard batch on the
// grown topology. The run fails outright if the migration loses or
// duplicates a single provenance item (exact item count + placement audit),
// and the digest of every object's read-back provenance must be
// byte-identical to a static deployment of the target size.

// ReshardRun is one configuration of the reshard harness.
type ReshardRun struct {
	Events      int
	CopiedItems int
	Epoch       int
	ItemCount   int
	Misplaced   int
	Duplicates  int
	ProvDigest  string
}

// ReshardUnderLoad runs one configuration on a clock live at scale. The
// transaction set splits into three equal phases; unless toK is fromK the
// fabric grows fromK→toK concurrently with phase B's commits.
func ReshardUnderLoad(seed int64, txns, bundlesPerTxn, workers, clientConns int, scale float64, fromK, toK int) (ReshardRun, error) {
	if clientConns <= 0 {
		clientConns = 64
	}
	run := ReshardRun{Events: txns * bundlesPerTxn}
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

	// Nothing lost, nothing duplicated, every item on exactly its home
	// shard, and the digest a static deployment of the target size must
	// reproduce.
	out, err := finish(f, set)
	if err != nil {
		return run, err
	}
	run.ItemCount, run.Misplaced, run.Duplicates, run.ProvDigest = out.items, out.misplaced, out.duplicates, out.digest
	return run, cleanEnd(f)
}
