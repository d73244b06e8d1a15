package bench

import (
	"strings"
	"testing"

	"passcloud/internal/core"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/workload"
)

// TestWorkloadEndStateInvariants replays the nightly workload through every
// protocol on a manual clock (instant, timing-free) and verifies the
// cloud-side end state: every archive present and coupled, full ancestry
// recorded, Merkle-verifiable, and queryable where the backend allows.
func TestWorkloadEndStateInvariants(t *testing.T) {
	for _, f := range core.Factories()[1:] {
		t.Run(f.Name, func(t *testing.T) {
			cfg := sim.DefaultConfig()
			cfg.Seed = 13
			env := sim.NewEnv(cfg)
			dep := core.NewDeployment(env)
			proto := f.New(dep, core.Options{})
			col := pass.New(env.Rand(), nil)
			fs := pasfs.New(env, proto, col, pasfs.Config{Collect: true, AsyncCommits: true, MaxInflight: 8})
			w := workload.Nightly(sim.NewRand(13))
			if err := fs.Run(w.Trace); err != nil {
				t.Fatal(err)
			}
			if err := proto.Settle(); err != nil {
				t.Fatal(err)
			}
			dep.Settle()
			backend := core.BackendOf(proto)

			// The workload's bill is dominated by the ~10 GB of transfer
			// in (~$1). Captured before the verification below adds
			// transfer-out charges of its own.
			cost := env.Meter().Usage().Cost(0)
			if cost < 0.9 || cost > 1.3 {
				t.Fatalf("nightly bill $%.2f, want ≈$1", cost)
			}

			// All thirty archives present with full size.
			keys, _, err := dep.Store.ListAll(core.DataPrefix + "mnt/backup/")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 30 {
				t.Fatalf("archives = %d, want 30", len(keys))
			}
			var totalBytes int64
			for _, k := range keys {
				o, err := dep.Store.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				totalBytes += o.Size
			}
			if gb := float64(totalBytes) / (1 << 30); gb < 9 || gb > 12 {
				t.Fatalf("stored %.1f GB, want ≈10.2", gb)
			}

			// Every archive coupled, ancestry complete, digest verified.
			for _, path := range []string{"mnt/backup/night-00.tar", "mnt/backup/night-29.tar"} {
				rep, err := core.VerifiedFetch(dep, backend, path, 20)
				if err != nil || !rep.Coupled {
					t.Fatalf("%s not coupled: %+v err=%v", path, rep, err)
				}
				ref, _ := col.FileRef(path)
				walk, err := core.CheckCausalOrdering(dep, backend, ref)
				if err != nil {
					t.Fatal(err)
				}
				if len(walk.Dangling) != 0 {
					t.Fatalf("%s dangling: %v", path, walk.Dangling)
				}
				// Flat tree: archive + cp + 40 repo files.
				if walk.Visited < 40 {
					t.Fatalf("%s ancestry too small: %d", path, walk.Visited)
				}
				mrep, err := core.VerifyAncestry(dep, backend, path)
				if err != nil {
					t.Fatal(err)
				}
				if !mrep.Verified {
					t.Fatalf("%s failed Merkle verification: %+v", path, mrep)
				}
			}

			// Q3 on the queryable backends: the cp process directly
			// outputs the archives.
			if backend == core.BackendSDB {
				eng := query.New(dep, backend)
				refs, _, err := eng.DirectOutputsOf("cp", 8)
				if err != nil {
					t.Fatal(err)
				}
				archives := 0
				for _, r := range refs {
					bundles, err := core.ReadProvenance(dep, backend, r.UUID)
					if err != nil {
						t.Fatal(err)
					}
					for _, bn := range bundles {
						if bn.Ref == r && strings.HasPrefix(bn.Name, "mnt/backup/") {
							archives++
						}
					}
				}
				if archives != 30 {
					t.Fatalf("Q3 found %d archives, want 30", archives)
				}
			}

		})
	}
}
