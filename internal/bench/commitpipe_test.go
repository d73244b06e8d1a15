package bench

import (
	"testing"

	"passcloud/internal/core"
)

// The seed's serial commit path (one SendMessage per WAL chunk, one
// DeleteMessage per receipt, one daemon, per-transaction BatchPuts) was
// deleted once the batched pipeline had replaced it everywhere. These gates
// pin what the serial-vs-pipeline twin comparison used to prove, against the
// serial twin's last measurements at d91734a (seed 7; first line of
// BENCH_history.jsonl): the pipeline persists byte-identical provenance and
// stays a fixed factor cheaper. They run at the old comparison's time scale.
const frozenPipeScale = 2000

func pipelineRun(t *testing.T, txns, bundlesPerTxn, workers int) ShardedWriteRun {
	t.Helper()
	run, err := ShardedWrite(7, txns, bundlesPerTxn, workers, 64, frozenPipeScale, core.Topology{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("pipeline: sqs=%d sdb-batches=%d $%.4f", run.SQSRequests, run.SDBBatchCalls, run.CostUSD)
	return run
}

// TestCommitPipelineIdentical is the always-on correctness check: a small
// transaction set lands byte-identically to what the serial path recorded.
func TestCommitPipelineIdentical(t *testing.T) {
	const (
		serialDigest  = "3d5874ff52746f43083dc34d5bf71011f0d4c5857830bc15076b3383a22b10ff"
		serialCostUSD = 0.00095
	)
	run := pipelineRun(t, 24, 16, 4)
	if run.ProvDigest != serialDigest {
		t.Fatalf("recorded provenance differs from the frozen serial digest: %s", run.ProvDigest)
	}
	if run.CostUSD >= serialCostUSD {
		t.Errorf("pipeline cost $%.5f not below the serial path's $%.5f", run.CostUSD, serialCostUSD)
	}
}

// TestCommitPipelineSpeedup is the acceptance check at full scale: ≥50k
// provenance events, the frozen serial digest, and no more than a fifth of
// the serial path's SQS requests and fewer BatchPutAttributes calls
// (coalescing across transactions fills batches the serial path left
// under-filled).
func TestCommitPipelineSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N benchmark")
	}
	const (
		serialDigest      = "a58b704787a78b6c062b91081e7aff4773abfb3e36e3d5ef9b53eb2bf80a553c"
		serialSQSRequests = 25_561 // the lower of the snapshot (25,561) and the re-run (26,365)
		serialBatchCalls  = 2_370
	)
	run := pipelineRun(t, 790, 64, 8)
	if run.Events < 50_000 {
		t.Fatalf("only %d events, want >= 50000", run.Events)
	}
	if run.ProvDigest != serialDigest {
		t.Fatalf("recorded provenance differs from the frozen serial digest: %s", run.ProvDigest)
	}
	if run.SQSRequests > serialSQSRequests/5 {
		t.Errorf("SQS requests: %d, want <= %d (a fifth of the serial path's)", run.SQSRequests, serialSQSRequests/5)
	}
	if run.SDBBatchCalls >= serialBatchCalls {
		t.Errorf("batch calls: %d not below the serial path's %d", run.SDBBatchCalls, serialBatchCalls)
	}
}
