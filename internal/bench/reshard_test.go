package bench

import "testing"

// TestReshardUnderLoadIdentical is the always-on correctness check: a small
// continuous-ingest run that grows K=1→4 mid-flight must pass the oracle
// (the run fails on a lost, duplicated or misplaced item) and read back
// byte-identically to a static K=4 deployment of the same transaction set.
func TestReshardUnderLoadIdentical(t *testing.T) {
	live, err := ReshardUnderLoad(11, 24, 16, 4, 32, 800, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	static4, err := ReshardUnderLoad(11, 24, 16, 4, 32, 800, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if live.CopiedItems == 0 || live.Epoch == 0 {
		t.Fatalf("reshard did not run: %+v", live)
	}
	if live.ProvDigest != static4.ProvDigest || live.ProvDigest == "" {
		t.Fatalf("resharded digest %s differs from static K=4 %s", live.ProvDigest, static4.ProvDigest)
	}
}
