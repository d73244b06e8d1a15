// Command provctl is an interactive inspector for a simulated
// provenance-aware cloud deployment. It boots a deployment, replays a
// chosen workload through a chosen protocol, and then serves a small
// command language for exploring the result:
//
//	provctl [-workload blast|nightly|challenge] [-protocol P1|P2|P3] [-seed N]
//
//	ls [prefix]          list data objects
//	stat <path>          object size + provenance link
//	prov <path>          dump an object's provenance (all versions)
//	ancestry <path>      walk and verify the full ancestor closure
//	outputs <program>    Q3: files directly output by a program
//	descendants <prog>   Q4: everything derived from a program
//	query <spec...>      run a composable query spec (see below)
//	plan <spec...>       show the plan a spec would run, without running it
//	cache [n|off|stats]  install/drop/inspect the read-through query cache
//	cache sub|unsub      attach the cache to the commit bus (precise
//	                     invalidation keeps a warm cache coherent under
//	                     live ingest) / detach it again
//	cache bound <dur>    cap how stale an unsubscribed observation may be
//	                     served (e.g. 30s, 5m; 0 disarms)
//	pushdown [on|off]    toggle lowering conjunctive filters into SELECTs
//	                     (on by default; "plan" shows the resulting split)
//	verify <path>        coupling check (provenance-aware read)
//	props                probe the Table-1 properties of this protocol
//	topology             show the fabric topology: epochs, ranges, shard load
//	reshard <K>          grow/shrink the live fabric to K WAL+domain shards
//	autoscale [status]   show the autoscale controller's counters, window and
//	                     open decision record
//	autoscale on|off     enable/disable the controller (created on first use)
//	autoscale step [dur] advance the sim clock by dur (default 10s) and run
//	                     one controller step — the REPL clock is manual, so
//	                     steps are driven by hand instead of a daemon loop
//	faults [p|off]       arm a uniform transient-fault plan / show fault and
//	                     retry counters (injected faults, per-endpoint split,
//	                     resilient-client retries, hedges, breaker opens)
//	tenants [stats|demo] show per-tenant admission counters (admitted /
//	                     queued / shed), placement bands and the retry
//	                     counters by endpoint and tenant; "demo" drives a short
//	                     two-tenant burst through the front door (P3 only) so
//	                     the counters have something to show
//	log [head]           checkpoint the transparency log and show the signed
//	                     tree head (size, root, signature check, durability)
//	log prove <path|txn> build and verify the Merkle inclusion proof for the
//	                     transaction that committed a path (or a txn uuid)
//	log audit            replay the log against the fabric: verify every
//	                     signed head, consistency link and inclusion proof,
//	                     diff leaves against a consistent fabric scan, and
//	                     report divergences alongside the Merkle-coupling
//	                     mismatch counter
//	bill                 show the accumulated cloud bill
//	help / quit
//
// A query spec is order-free tokens: roots (path:<p>, uuid:<u>,
// ref:<uuid_version>, attr:<name>=<value>, all repeatable),
// dir=self|versions|ancestors|descendants|all, depth=<n>,
// filter=type:<t>|name:<v>|attr:<a>=<v> (repeatable, ANDed),
// project=refs|bundles, workers=<n>. For example, Q3 restricted to files:
//
//	query attr:name=blastall attr:type=proc dir=descendants depth=1 filter=type:file
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passcloud/internal/autoscale"
	"passcloud/internal/bench"
	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
	"passcloud/internal/uuid"
	"passcloud/internal/workload"
)

// demoTxn builds one small transaction for the front-door demo: a process
// bundle and a file it outputs, both minted inside the tenant's band.
func demoTxn(tn *frontdoor.Tenant, i int) (core.FileObject, []prov.Bundle) {
	path := fmt.Sprintf("mnt/tenants/%s/%04d", tn.ID(), i)
	proc := prov.Ref{UUID: tn.NewUUID(), Version: 1}
	file := prov.Ref{UUID: tn.NewUUID(), Version: 1}
	bundles := []prov.Bundle{
		{Ref: proc, Type: prov.Process, Name: "tenantprog", Records: []prov.Record{
			{Attr: prov.AttrType, Value: "proc"},
			{Attr: prov.AttrName, Value: "tenantprog"},
		}},
		{Ref: file, Type: prov.File, Name: path, Records: []prov.Record{
			{Attr: prov.AttrType, Value: "file"},
			{Attr: prov.AttrName, Value: path},
			{Attr: prov.AttrInput, Xref: proc},
		}},
	}
	return core.FileObject{Path: path, Size: 512, Ref: file}, bundles
}

// printTopology renders both placement directories: epoch ids, hash ranges
// and per-shard load (items / queued messages).
// printCoherence renders the cache's coherence substats: how the entries
// are being kept honest (subscription, epoch flushes, staleness bound) and
// how often that machinery fired.
func printCoherence(s query.CacheStats) {
	mode := "unsubscribed (eventual consistency)"
	if s.Subscribed {
		mode = "subscribed (commit-bus invalidation)"
	}
	fmt.Printf("  coherence: %s\n", mode)
	fmt.Printf("  coherent hits %d, invalidations %d, epoch flushes %d\n",
		s.CoherenceHits, s.Invalidations, s.EpochFlushes)
	fmt.Printf("  stale serves %d, expired %d, subscription lag %d\n",
		s.StaleServes, s.Expired, s.SubscriptionLag)
}

// onOff spells a toggle the way the command language reads it.
func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func printTopology(dep *core.Deployment) {
	fmt.Printf("topology: %d WAL shard(s) x %d domain shard(s)\n", dep.Topo.WALShards, dep.Topo.DBShards)
	if c, ok, err := dep.ReadControl(); err == nil && ok {
		// Audit the persisted routing against the live fabric: the control
		// object's directory snapshots must route exactly as the in-memory
		// directories do (an eventually consistent read of a just-updated
		// control object can lag one state behind).
		agree := "matches live routing"
		persisted := sim.RestoreDirectory(c.DBDir)
		live := dep.DB.Directory()
		if persisted.Epoch() != live.Epoch() || persisted.Migrating() != live.Migrating() {
			agree = fmt.Sprintf("LAGS live routing (persisted epoch %d, live %d) — stale read or pending ResumeReshard", persisted.Epoch(), live.Epoch())
		}
		fmt.Printf("control object (%s): state=%s, %s\n", core.FabricControlKey, c.State, agree)
	} else {
		fmt.Println("control object: none (fabric never resharded)")
	}
	renderDir := func(axis string, d *sim.Directory, load func(shard int) string) {
		active := d.Active()
		fmt.Printf("%s: epoch %d, %d shard(s)", axis, active.ID, active.Shards)
		if t, ok := d.Target(); ok {
			fmt.Printf(" -> migrating to epoch %d, %d shard(s)", t.ID, t.Shards)
		}
		fmt.Println()
		for _, r := range active.Ranges {
			fmt.Printf("  [%10d, ...) -> shard %d  %s\n", r.Start, r.Shard, load(r.Shard))
		}
	}
	renderDir("domains", dep.DB.Directory(), func(s int) string {
		if d := dep.DB.Shard(s); d != nil {
			return fmt.Sprintf("(%s: %d items)", d.Name(), d.ItemCount())
		}
		return "(retired)"
	})
	renderDir("wal", dep.WAL.Directory(), func(s int) string {
		if q := dep.WAL.Shard(s); q != nil {
			return fmt.Sprintf("(%s: %d queued)", q.Name(), q.Len())
		}
		return "(retired)"
	})
}

func main() {
	wl := flag.String("workload", "challenge", "workload to replay (blast, nightly, challenge)")
	protoName := flag.String("protocol", "P3", "protocol (P1, P2, P3)")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	cfg := sim.DefaultConfig()
	cfg.Seed = *seed
	env := sim.NewEnv(cfg)
	dep := core.NewDeployment(env)

	var proto core.Protocol
	for _, f := range core.Factories() {
		if strings.EqualFold(f.Name, *protoName) {
			proto = f.New(dep, core.Options{})
		}
	}
	if proto == nil || core.BackendOf(proto) == core.BackendNone {
		fmt.Fprintf(os.Stderr, "provctl: unknown or provenance-free protocol %q\n", *protoName)
		os.Exit(2)
	}
	w, err := workload.ByName(*wl, sim.NewRand(*seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "provctl:", err)
		os.Exit(2)
	}

	// The transparency log rides the commit bus from the first commit, so
	// the whole replay is sequenced (P2 notices carry no transaction uuids
	// and leave the log empty — only P3 commits have a history to log).
	tlog := translog.New(env, dep.Store, "")
	defer tlog.Attach(dep.Commits)()

	fmt.Printf("replaying %s through %s ... ", w.Name, proto.Name())
	col := pass.New(env.Rand(), nil)
	fs := pasfs.New(env, proto, col, pasfs.DefaultConfig())
	if err := fs.Run(w.Trace); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
	if err := proto.Settle(); err != nil {
		fmt.Fprintln(os.Stderr, "settle:", err)
		os.Exit(1)
	}
	dep.Settle()
	st := dep.Store.Stats()
	fmt.Printf("done: %d objects, %.1f MB, %d provenance items\n",
		st.Objects, float64(st.Bytes)/(1<<20), dep.DB.ItemCount())
	fmt.Println(`type "help" for commands`)

	backend := core.BackendOf(proto)
	eng := query.New(dep, backend)
	chaosProb := 0.0              // the armed uniform fault probability (0 = disarmed)
	var door *frontdoor.Door      // created on first `tenants demo`
	var ctl *autoscale.Controller // created on first `autoscale` command
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("provctl> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		cmd, arg := fields[0], ""
		if len(fields) > 1 {
			arg = fields[1]
		}
		switch cmd {
		case "quit", "exit":
			return
		case "help":
			fmt.Println("ls [prefix] | stat <path> | prov <path> | ancestry <path> |")
			fmt.Println("outputs <program> | descendants <program> | query <spec...> | plan <spec...> |")
			fmt.Println("cache [n|off|stats|sub|unsub|bound <dur>] | pushdown [on|off] |")
			fmt.Println("verify <path> | props | topology | reshard <K> | autoscale [status|on|off|step [dur]] |")
			fmt.Println("faults [p|off] | tenants [stats|demo] | log [head|prove <path|txn>|audit] | bill | quit")
			fmt.Println("spec tokens: path:<p> uuid:<u> ref:<r> attr:<a>=<v> dir=<d> depth=<n>")
			fmt.Println("             filter=type:<t>|name:<v>|attr:<a>=<v> project=refs|bundles workers=<n>")
		case "ls":
			keys, _, err := dep.Store.ListAll(core.DataPrefix + arg)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, k := range keys {
				fmt.Println(" ", strings.TrimPrefix(k, core.DataPrefix))
			}
			fmt.Printf("%d objects\n", len(keys))
		case "stat":
			o, err := proto.Fetch(arg)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("%s: %d bytes, provenance %s_%s\n", arg, o.Size,
				o.Metadata[core.MetaUUID], o.Metadata[core.MetaVersion])
		case "prov":
			bundles, m, err := eng.ObjectProvenance(arg)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, b := range bundles {
				fmt.Printf("  %s v%d %s %q\n", b.Ref.UUID, b.Ref.Version, b.Type, b.Name)
				for _, r := range b.Records {
					if r.IsXref() {
						fmt.Printf("    %-12s -> %s\n", r.Attr, r.Xref)
					} else if len(r.Value) < 60 {
						fmt.Printf("    %-12s = %s\n", r.Attr, r.Value)
					}
				}
			}
			fmt.Printf("(%d bundles, %.3fs, %d ops)\n", len(bundles), m.Elapsed.Seconds(), m.Ops)
		case "ancestry":
			ref, ok := col.FileRef(arg)
			if !ok {
				fmt.Println("unknown file")
				continue
			}
			walk, err := core.CheckCausalOrdering(dep, backend, ref)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("visited %d nodes, dangling %d\n", walk.Visited, len(walk.Dangling))
		case "outputs":
			refs, m, err := eng.DirectOutputsOf(arg, 8)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("%d direct outputs (%.3fs, %d ops)\n", len(refs), m.Elapsed.Seconds(), m.Ops)
		case "descendants":
			refs, m, err := eng.DescendantsOf(arg, 8)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("%d descendants (%.3fs, %d ops)\n", len(refs), m.Elapsed.Seconds(), m.Ops)
		case "query", "plan":
			spec, err := query.ParseSpec(fields[1:])
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("plan:", eng.Describe(spec))
			if cmd == "plan" {
				continue
			}
			n := 0
			m0 := env.Meter().Usage()
			t0 := env.Now()
			for r, err := range eng.Run(spec) {
				if err != nil {
					fmt.Println("error:", err)
					break
				}
				n++
				if r.Bundle != nil {
					fmt.Printf("  d%-2d %s %s %q\n", r.Depth, r.Ref, r.Bundle.Type, r.Bundle.Name)
				} else {
					fmt.Printf("  d%-2d %s\n", r.Depth, r.Ref)
				}
			}
			m1 := env.Meter().Usage()
			fmt.Printf("%d results (%.3fs, %d ops)\n", n, (env.Now() - t0).Seconds(), m1.TotalOps-m0.TotalOps)
			if c := eng.Cache(); c != nil {
				s := c.Stats()
				fmt.Printf("cache: %d hits, %d misses, %d entries\n", s.Hits, s.Misses, s.Entries)
				printCoherence(s)
			}
		case "cache":
			switch arg {
			case "", "stats":
				if c := eng.Cache(); c != nil {
					s := c.Stats()
					fmt.Printf("cache on: %d hits, %d misses, %d evictions, %d entries\n",
						s.Hits, s.Misses, s.Evictions, s.Entries)
					printCoherence(s)
				} else {
					fmt.Println("cache off")
				}
			case "off":
				eng.SetCache(nil)
				fmt.Println("cache off")
			case "sub":
				if err := eng.Subscribe(); err != nil {
					fmt.Println("error:", err)
					continue
				}
				fmt.Println("cache subscribed: commits now invalidate exactly the observations they touch")
			case "unsub":
				eng.Unsubscribe()
				fmt.Println("cache unsubscribed: observations revert to eventual consistency")
			case "bound":
				if eng.Cache() == nil {
					fmt.Println("cache off (install one first: cache <n>)")
					continue
				}
				if len(fields) < 3 {
					fmt.Println("usage: cache bound <duration>   (e.g. 30s, 5m; 0 disarms)")
					continue
				}
				d, err := time.ParseDuration(fields[2])
				if err != nil || d < 0 {
					fmt.Println("usage: cache bound <duration>   (e.g. 30s, 5m; 0 disarms)")
					continue
				}
				eng.SetStalenessBound(d)
				if d == 0 {
					fmt.Println("staleness bound disarmed")
				} else {
					fmt.Printf("staleness bound %s: older unsubscribed observations are dropped on lookup\n", d)
				}
			default:
				n := 0
				if _, err := fmt.Sscanf(arg, "%d", &n); err != nil {
					fmt.Println("usage: cache [n|off|stats]")
					continue
				}
				eng.SetCache(query.NewCache(n))
				if n <= 0 {
					n = query.DefaultCacheEntries
				}
				fmt.Printf("cache on (%d entries max)\n", n)
				if backend == core.BackendS3 {
					fmt.Println("note: the store backend's plans never consult the cache (only database plans do)")
				}
			}
		case "pushdown":
			switch arg {
			case "":
				fmt.Printf("pushdown %s\n", onOff(eng.Pushdown()))
			case "on", "off":
				eng.SetPushdown(arg == "on")
				fmt.Printf("pushdown %s\n", onOff(eng.Pushdown()))
				if eng.Cache() != nil {
					fmt.Println("note: cached plans answer from observations and filter client-side; pushdown applies once the cache is off")
				}
			default:
				fmt.Println("usage: pushdown [on|off]")
			}
		case "verify":
			rep, err := core.VerifiedFetch(dep, backend, arg, 5)
			if err != nil {
				fmt.Println("not coupled:", err)
				continue
			}
			fmt.Printf("coupled: %s is version %d of %s\n", arg, rep.Linked.Version, rep.Linked.UUID)
		case "props":
			rows, err := bench.Table1(*seed)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			bench.RenderTable1(os.Stdout, rows)
		case "topology":
			printTopology(dep)
		case "reshard":
			k, err := strconv.Atoi(arg)
			if err != nil || k < 1 || k > core.MaxShards {
				fmt.Printf("usage: reshard <K>  (1..%d)\n", core.MaxShards)
				continue
			}
			stats, err := dep.Reshard(context.Background(), core.Topology{WALShards: k, DBShards: k})
			if err != nil {
				fmt.Println("reshard error:", err)
				continue
			}
			fmt.Printf("resharded %dx%d -> %dx%d (epoch %d): copied %d items in %d requests, GC'd %d in %d, moved %d WAL messages\n",
				stats.From.WALShards, stats.From.DBShards, stats.To.WALShards, stats.To.DBShards,
				stats.Epoch, stats.CopiedItems, stats.CopyBatches, stats.GCItems, stats.GCBatches, stats.WALMigrated)
		case "autoscale":
			if ctl == nil {
				ctl = autoscale.New(dep, autoscale.Config{})
			}
			switch arg {
			case "on":
				ctl.Enable()
				fmt.Println("autoscale: enabled")
			case "off":
				ctl.Disable()
				fmt.Println("autoscale: disabled")
			case "step":
				window := 10 * time.Second
				if len(fields) > 2 {
					d, err := time.ParseDuration(fields[2])
					if err != nil || d <= 0 {
						fmt.Println("usage: autoscale step [dur]  (e.g. 10s, 1m)")
						continue
					}
					window = d
				}
				if !ctl.Enabled() {
					fmt.Println(`autoscale is off; "autoscale on" first`)
					continue
				}
				env.Clock().Advance(window)
				if err := ctl.Step(context.Background()); err != nil {
					fmt.Println("step error:", err)
					continue
				}
				fallthrough
			case "", "status":
				s := ctl.Status()
				state := "off"
				if s.Enabled {
					state = "on"
				}
				fmt.Printf("controller: %s, fabric K=%d\n", state, s.K)
				fmt.Printf("samples %d | grows %d shrinks %d holds %d deferred %d\n",
					s.Samples, s.Grows, s.Shrinks, s.Holds, s.Deferred)
				if s.Window > 0 {
					fmt.Printf("last window: %s, %.1f ops/s/shard, max WAL backlog %d\n",
						s.Window, s.RatePerShard, s.MaxBacklog)
				}
				if r := s.Record; r != nil {
					fmt.Printf("decision record #%d: %s K %d->%d (%s)\n",
						r.Seq, r.State, r.FromK, r.TargetK, r.Reason)
					if r.State == autoscale.RecordDone {
						fmt.Printf("  reshard: copied %d items in %d requests, GC'd %d in %d\n",
							r.CopiedItems, r.CopyBatches, r.GCItems, r.GCBatches)
					}
				}
				if s.LastErr != "" {
					fmt.Println("last error:", s.LastErr)
				}
			default:
				fmt.Println("usage: autoscale [status|on|off|step [dur]]")
			}
		case "faults":
			switch arg {
			case "", "stats":
				if chaosProb > 0 {
					fmt.Printf("fault plan: uniform %.1f%% per request (half of mutating faults ambiguous)\n", chaosProb*100)
				} else {
					fmt.Println("fault plan: off")
				}
				u := env.Meter().Usage()
				fmt.Printf("faults injected: %d\n", u.Faults)
				eps := make([]string, 0, len(u.FaultsByEndpoint))
				for ep := range u.FaultsByEndpoint {
					eps = append(eps, ep)
				}
				sort.Strings(eps)
				for _, ep := range eps {
					fmt.Printf("  %-10s %d\n", ep, u.FaultsByEndpoint[ep])
				}
				if dep.Res != nil {
					fmt.Println("resilience:", dep.Res.Stats())
				} else {
					fmt.Println("resilience: disabled")
				}
			case "off":
				env.InstallFaults(nil)
				chaosProb = 0
				fmt.Println("fault plan disarmed (forced faults, if any, stay armed)")
			default:
				p, err := strconv.ParseFloat(arg, 64)
				if err != nil || p < 0 || p > 1 {
					fmt.Println("usage: faults [<prob 0..1>|off|stats]")
					continue
				}
				env.InstallFaults(sim.UniformPlan(p, 0.5))
				chaosProb = p
				fmt.Printf("armed: every request faults with probability %.1f%%; the resilient client retries\n", p*100)
			}
		case "tenants":
			switch arg {
			case "", "stats":
				u := env.Meter().Usage()
				if len(u.OpsByTenant) == 0 {
					fmt.Println("no tenant traffic yet; try: tenants demo")
					continue
				}
				ids := make([]string, 0, len(u.OpsByTenant))
				for id := range u.OpsByTenant {
					ids = append(ids, id)
				}
				sort.Strings(ids)
				epoch := dep.WAL.Directory().Active()
				fmt.Printf("%-12s %6s %18s %9s %7s %5s\n", "tenant", "band", "home wal shard", "admitted", "queued", "shed")
				for _, id := range ids {
					ops := u.OpsByTenant[id]
					band := frontdoor.BandFor(id)
					fmt.Printf("%-12s %6d %18d %9d %7d %5d\n",
						id, band, epoch.RouteHash(band.Start()), ops.Admitted, ops.Queued, ops.Shed)
				}
				if dep.Res != nil {
					fmt.Println("resilience:", dep.Res.Stats())
				}
			case "demo":
				p3, ok := proto.(*core.P3)
				if !ok {
					fmt.Println("tenants demo needs the P3 protocol")
					continue
				}
				if door == nil {
					door = frontdoor.New(dep, p3, frontdoor.Config{})
				}
				// A polite tenant inside its quota and a greedy one bursting
				// an order of magnitude past its own: most of the greedy
				// burst is shed with typed backpressure, without the polite
				// tenant noticing.
				polite := door.Tenant("polite", frontdoor.Quota{Rate: 100, Burst: 16})
				greedy := door.Tenant("greedy", frontdoor.Quota{Rate: 0.5, Burst: 1, MaxQueue: 2, Priority: frontdoor.PriorityLow})
				for i := 0; i < 6; i++ {
					obj, bundles := demoTxn(polite, i)
					if err := polite.Commit(obj, bundles); err != nil {
						fmt.Println("polite commit:", err)
					}
				}
				// The greedy burst needs genuinely concurrent arrivals, which
				// only a live clock provides (on the manual clock goroutines
				// serialize and every commit's virtual sleeps outrun the
				// token interval); run it briefly scaled, then freeze again.
				env.Clock().SetScale(50)
				var wg sync.WaitGroup
				var shed atomic.Int64
				for i := 0; i < 8; i++ {
					i := i
					wg.Add(1)
					go func() {
						defer wg.Done()
						obj, bundles := demoTxn(greedy, i)
						if err := greedy.Commit(obj, bundles); err != nil {
							var oc *frontdoor.OverCapacityError
							if errors.As(err, &oc) {
								shed.Add(1)
								return
							}
							fmt.Println("greedy commit:", err)
						}
					}()
				}
				wg.Wait()
				env.Clock().SetScale(0)
				if err := p3.Settle(); err != nil {
					fmt.Println("settle:", err)
					continue
				}
				fmt.Printf("committed 6 polite + %d greedy transactions; %d greedy sheds got ErrOverCapacity with a retry-after hint\n",
					8-shed.Load(), shed.Load())
				fmt.Println(`now try: tenants stats`)
			default:
				fmt.Println("usage: tenants [stats|demo]")
			}
		case "log":
			switch arg {
			case "", "head":
				head, err := tlog.Checkpoint()
				if err != nil {
					fmt.Println("checkpoint error:", err)
					continue
				}
				if head.TreeSize == 0 {
					fmt.Println("transparency log empty (only P3 commits are sequenced)")
					continue
				}
				sig := "signature VERIFIES"
				if !head.Verify(tlog.Public()) {
					sig = "signature INVALID"
				}
				fmt.Printf("signed tree head: size %d, %s\n", head.TreeSize, sig)
				fmt.Printf("  root     %s\n", head.Root)
				fmt.Printf("  sequenced at sim t=%.3fs, %d leaves durable\n",
					time.Duration(head.SimNanos).Seconds(), tlog.PersistedSize())
			case "prove":
				if len(fields) < 3 {
					fmt.Println("usage: log prove <path|txn-uuid>")
					continue
				}
				target := fields[2]
				txn, err := uuid.Parse(target)
				if err != nil {
					// A path: resolve it to its provenance item, then find
					// the leaf that committed that item.
					o, ferr := proto.Fetch(target)
					if ferr != nil {
						fmt.Println("error:", ferr)
						continue
					}
					item := o.Metadata[core.MetaUUID] + "_" + o.Metadata[core.MetaVersion]
					found := false
					for _, lf := range tlog.Leaves() {
						for _, li := range lf.Items {
							if li.Name == item {
								txn, err = uuid.Parse(lf.Txn)
								found = err == nil
								break
							}
						}
						if found {
							break
						}
					}
					if !found {
						fmt.Printf("no leaf sequences item %s (P1/P2 commit, or unlogged)\n", item)
						continue
					}
				}
				p, err := tlog.ProveInclusion(txn)
				if err != nil {
					fmt.Println("error:", err)
					continue
				}
				verdict := "VERIFIES"
				if !p.Verify() {
					verdict = "FAILS"
				}
				fmt.Printf("inclusion proof %s: leaf %d of %d, txn %s\n", verdict, p.Index, p.TreeSize, p.Txn)
				fmt.Printf("  root %s\n", p.Root)
				for i, d := range p.Path {
					fmt.Printf("  path[%d] %s\n", i, d)
				}
				fmt.Printf("  leaf commits %d item(s) at epoch %d\n", len(p.Leaf.Items), p.Leaf.Epoch)
			case "audit":
				head, err := tlog.Checkpoint()
				if err != nil {
					fmt.Println("checkpoint error:", err)
					continue
				}
				if head.TreeSize == 0 {
					fmt.Println("transparency log empty (only P3 commits are sequenced); skipping fabric diff")
					continue
				}
				rep, err := translog.Audit(dep, tlog, translog.AuditOptions{})
				if err != nil {
					fmt.Println("audit error:", err)
					continue
				}
				fmt.Println(rep)
				for _, f := range rep.ProofFailures {
					fmt.Println("  proof failure:", f)
				}
				for _, d := range rep.Divergences {
					fmt.Printf("  divergence: %s %s (txn %s)\n", d.Kind, d.Item, d.Txn)
				}
				u := env.Meter().Usage()
				fmt.Printf("merkle coupling: %d ancestry-verification mismatches this session\n", u.MerkleMismatches)
			default:
				fmt.Println("usage: log [head|prove <path|txn>|audit]")
			}
		case "bill":
			u := env.Meter().Usage()
			fmt.Printf("$%.4f  (%s)\n", u.Cost(0), u)
		default:
			fmt.Println("unknown command; try help")
		}
	}
}
