// Command provctl is an interactive inspector for a simulated
// provenance-aware cloud deployment: it replays a workload through a
// protocol, then reads commands from standard input.
//
//	provctl [-workload blast|nightly|challenge] [-protocol P1|P2|P3] [-seed N]
//
// Everything runs on the manual clock with synchronous commits, so the seed
// decides the session up to the fields the transcript test masks. help
// lists the commands and the query spec's tokens from the table that also
// dispatches them and prints every usage error.
package main

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"passcloud/internal/autoscale"
	"passcloud/internal/core"
	"passcloud/internal/frontdoor"
	"passcloud/internal/oracle"
	"passcloud/internal/pasfs"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
	"passcloud/internal/query"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
	"passcloud/internal/uuid"
	"passcloud/internal/workload"
)

// command is one entry of the command language, shaped like a
// google/subcommands Command. In args, each <arg> before the first [...] is
// required.
type command struct {
	name, args, synopsis string
	run                  func(s *session, args []string) error
}

// commands is the command language. init fills it because help lists it.
var commands []command

func init() {
	commands = []command{
		{"ls", "[<prefix>]", "list data objects", (*session).ls},
		{"stat", "<path>", "object size and provenance link", (*session).stat},
		{"prov", "<path>", "an object's provenance, all versions", (*session).prov},
		{"ancestry", "<path>", "walk and verify the ancestor closure", (*session).ancestry},
		{"outputs", "<program>", "Q3: files a program output directly", func(s *session, a []string) error {
			return s.counted("direct outputs")(s.eng.DirectOutputsOf(a[0], 8))
		}},
		{"descendants", "<program>", "Q4: everything derived from a program", func(s *session, a []string) error {
			return s.counted("descendants")(s.eng.DescendantsOf(a[0], 8))
		}},
		{"query", "<spec...>", "run a query spec (tokens below)", func(s *session, a []string) error { return s.query(a, true) }},
		{"plan", "<spec...>", "show a spec's plan without running it", func(s *session, a []string) error { return s.query(a, false) }},
		{"cache", "[<n>|off|stats|sub|unsub]", "the query cache; sub keeps it coherent", (*session).cache},
		{"pushdown", "[on|off]", "lower filters into SELECTs (on)", (*session).pushdown},
		{"verify", "<path>", "coupling check (provenance-aware read)", (*session).verify},
		{"props", "", "probe this protocol's Table 1 row", (*session).props},
		{"topology", "", "epochs, ranges and per-shard load", (*session).topology},
		{"reshard", "<K>", "move to K WAL and K domain shards", (*session).reshard},
		{"autoscale", "[status|on|off|step [<dur>]]", "the controller; step runs it once", (*session).autoscale},
		{"faults", "[<p>|off|stats]", "uniform fault plan, fault counters", (*session).faults},
		{"tenants", "[stats|demo]", "per-tenant admission; demo (P3)", (*session).tenants},
		{"log", "[head|prove <path-or-txn>|audit]", "the transparency log", (*session).log},
		{"bill", "", "the accumulated cloud bill", (*session).bill},
		{"help", "", "this list", (*session).help},
		{"quit", "", "end the session", func(*session, []string) error { return errQuit }},
	}
}

var errUsage, errQuit = errors.New("usage"), errors.New("quit")

// session is a deployment with one workload replayed into it through one
// protocol, the transparency log that sequenced the replay, and what the
// commands have built on it since.
type session struct {
	out      io.Writer
	seed     int64
	workload string
	env      *sim.Env
	dep      *core.Deployment
	factory  core.ProtocolFactory
	proto    core.Protocol
	col      *pass.Collector
	tlog     *translog.Log
	eng      *query.Engine
	faultP   float64               // the armed uniform fault probability (0 = disarmed)
	door     *frontdoor.Door       // created by the first tenants demo
	ctl      *autoscale.Controller // created by the first autoscale command
}

// boot replays the named workload through the named protocol on the manual
// clock. Commits are synchronous, so the seed decides the session.
func boot(wl, protocol string, seed int64) (*session, error) {
	s := &session{out: io.Discard, seed: seed, env: sim.NewEnv(sim.Config{Seed: seed})}
	s.dep = core.NewDeployment(s.env)
	for _, f := range core.Factories() {
		if strings.EqualFold(f.Name, protocol) {
			s.factory, s.proto = f, f.New(s.dep, core.Options{})
		}
	}
	if s.proto == nil || core.BackendOf(s.proto) == core.BackendNone {
		return nil, fmt.Errorf("unknown or provenance-free protocol %q", protocol)
	}
	w, err := workload.ByName(wl, sim.NewRand(seed))
	if err != nil {
		return nil, err
	}
	// The transparency log rides the commit bus from the first commit, so
	// the whole replay is sequenced (P1 and P2 notices carry no transaction
	// uuids and leave the log empty). The collector mints uuids from its own
	// stream: the environment's also serves the service model's concurrent
	// draws (ROADMAP item 21), which would leave P1's uuids to the scheduler.
	s.workload, s.tlog, s.col = w.Name, translog.New(s.env, s.dep.Store, ""), pass.New(sim.NewRand(seed), nil)
	s.tlog.Attach(s.dep.Commits)
	if err := pasfs.New(s.env, s.proto, s.col, pasfs.Config{Collect: true}).Run(w.Trace); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := s.proto.Settle(); err != nil {
		return nil, fmt.Errorf("settle: %w", err)
	}
	s.dep.Settle()
	s.eng = query.New(s.dep, core.BackendOf(s.proto))
	return s, nil
}

// run boots a session and serves the command language from in to out until
// quit or the end of in. A command's error is printed and the session goes
// on; only a failed boot or read ends run with an error.
func run(in io.Reader, out io.Writer, wl, protocol string, seed int64) error {
	s, err := boot(wl, protocol, seed)
	if err != nil {
		return err
	}
	s.out = out
	st := s.dep.Store.Stats()
	s.printf("replayed %s through %s: %d objects, %.1f MB, %d provenance items\ntype \"help\" for commands\n",
		s.workload, s.proto.Name(), st.Objects, float64(st.Bytes)/(1<<20), s.dep.DB.ItemCount())
	sc := bufio.NewScanner(in)
	for s.printf("provctl> "); sc.Scan(); s.printf("provctl> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		i := slices.IndexFunc(commands, func(c command) bool { return c.name == fields[0] })
		if i < 0 {
			s.printf("unknown command %q; try help\n", fields[0])
			continue
		}
		c, args := commands[i], fields[1:]
		required, _, _ := strings.Cut(c.args, "[")
		err := errUsage
		if len(args) >= strings.Count(required, "<") {
			err = c.run(s, args)
		}
		switch {
		case errors.Is(err, errQuit):
			return nil
		case errors.Is(err, errUsage):
			s.printf("usage: %s %s\n", c.name, c.args)
		case err != nil:
			s.printf("error: %v\n", err)
		}
	}
	return sc.Err()
}

func main() {
	wl := flag.String("workload", "challenge", "workload to replay (blast, nightly, challenge)")
	protocol := flag.String("protocol", "P3", "protocol (P1, P2, P3)")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *wl, *protocol, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "provctl:", err)
		os.Exit(1)
	}
}

func (s *session) printf(format string, a ...any) { fmt.Fprintf(s.out, format, a...) }

// arg returns args[i], or "" when it is absent.
func arg(args []string, i int) string {
	if i < len(args) {
		return args[i]
	}
	return ""
}

// either spells a bool the way the command language reads it.
func either(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

func (s *session) help([]string) error {
	for _, c := range commands {
		s.printf("%-38s %s\n", strings.TrimSpace(c.name+" "+c.args), c.synopsis)
	}
	s.printf("spec tokens: path:<p> uuid:<u> ref:<r> attr:<a>=<v> dir=<d> depth=<n>\n" +
		"             filter=type:<t>|name:<v>|attr:<a>=<v> project=refs|bundles workers=<n>\n")
	return nil
}

func (s *session) ls(args []string) error {
	keys, _, err := s.dep.Store.ListAll(core.DataPrefix + arg(args, 0))
	if err != nil {
		return err
	}
	for _, k := range keys {
		s.printf("  %s\n", strings.TrimPrefix(k, core.DataPrefix))
	}
	s.printf("%d objects\n", len(keys))
	return nil
}

func (s *session) stat(args []string) error {
	o, err := s.proto.Fetch(args[0])
	if err != nil {
		return err
	}
	s.printf("%s: %d bytes, provenance %s_%s\n", args[0], o.Size, o.Metadata[core.MetaUUID], o.Metadata[core.MetaVersion])
	return nil
}

func (s *session) prov(args []string) error {
	bundles, m, err := s.eng.ObjectProvenance(args[0])
	if err != nil {
		return err
	}
	for _, b := range bundles {
		s.printf("  %s v%d %s %q\n", b.Ref.UUID, b.Ref.Version, b.Type, b.Name)
		for _, r := range b.Records {
			if r.IsXref() {
				s.printf("    %-12s -> %s\n", r.Attr, r.Xref)
			} else if len(r.Value) < 60 {
				s.printf("    %-12s = %s\n", r.Attr, r.Value)
			}
		}
	}
	s.printf("(%d bundles, %.3fs, %d ops)\n", len(bundles), m.Elapsed.Seconds(), m.Ops)
	return nil
}

func (s *session) ancestry(args []string) error {
	ref, ok := s.col.FileRef(args[0])
	if !ok {
		return errors.New("unknown file")
	}
	walk, err := core.CheckCausalOrdering(s.dep, core.BackendOf(s.proto), ref)
	if err != nil {
		return err
	}
	s.printf("visited %d nodes, dangling %d\n", walk.Visited, len(walk.Dangling))
	rep, err := core.VerifyAncestry(s.dep, core.BackendOf(s.proto), args[0])
	if err != nil {
		return err
	}
	verdict := "MATCHES"
	if !rep.Verified {
		verdict = "MISMATCH"
	}
	s.printf("merkle root over %d leaves %s the recorded root\n", rep.Leaves, verdict)
	return nil
}

// counted returns the printer of a §5.3 query's result count and Table 5
// metrics.
func (s *session) counted(what string) func([]prov.Ref, query.Metrics, error) error {
	return func(refs []prov.Ref, m query.Metrics, err error) error {
		if err == nil {
			s.printf("%d %s (%.3fs, %d ops)\n", len(refs), what, m.Elapsed.Seconds(), m.Ops)
		}
		return err
	}
}

// query prints the plan of a spec and, if run is set, runs it.
func (s *session) query(args []string, run bool) error {
	spec, err := query.ParseSpec(args)
	if err != nil {
		return err
	}
	s.printf("plan: %s\n", s.eng.Describe(spec))
	if !run {
		return nil
	}
	n, ops0, t0 := 0, s.env.Meter().Usage().TotalOps, s.env.Now()
	for r, err := range s.eng.Run(spec) {
		if err != nil {
			return err
		}
		n++
		if r.Bundle != nil {
			s.printf("  d%-2d %s %s %q\n", r.Depth, r.Ref, r.Bundle.Type, r.Bundle.Name)
		} else {
			s.printf("  d%-2d %s\n", r.Depth, r.Ref)
		}
	}
	s.printf("%d results (%.3fs, %d ops)\n", n, (s.env.Now() - t0).Seconds(), s.env.Meter().Usage().TotalOps-ops0)
	if s.eng.Cache() != nil {
		return s.cache(nil)
	}
	return nil
}

func (s *session) cache(args []string) error {
	switch v := arg(args, 0); v {
	case "off":
		s.eng.SetCache(nil)
		fallthrough
	case "", "stats":
		c := s.eng.Cache()
		if c == nil {
			s.printf("cache off\n")
			return nil
		}
		// How the entries are kept honest, and how often that fired.
		st := c.Stats()
		s.printf("cache on: %d hits, %d misses, %d evictions, %d entries\n  coherence: %s\n  coherent hits %d, invalidations %d, epoch flushes %d\n",
			st.Hits, st.Misses, st.Evictions, st.Entries,
			either(st.Subscribed, "subscribed (commit-bus invalidation)", "unsubscribed (eventual consistency)"),
			st.CoherenceHits, st.Invalidations, st.EpochFlushes)
	case "sub":
		if err := s.eng.Subscribe(); err != nil {
			return err
		}
		s.printf("cache subscribed: commits now invalidate exactly the observations they touch\n")
	case "unsub":
		s.eng.Unsubscribe()
		s.printf("cache unsubscribed: observations revert to eventual consistency\n")
	default:
		n, err := strconv.Atoi(v)
		if err != nil {
			return errUsage
		}
		s.eng.SetCache(query.NewCache(n))
		s.printf("cache on (%d entries max)\n", cmp.Or(max(n, 0), query.DefaultCacheEntries))
		if core.BackendOf(s.proto) == core.BackendS3 {
			s.printf("note: the store backend's plans never consult the cache (only database plans do)\n")
		}
	}
	return nil
}

func (s *session) pushdown(args []string) error {
	switch v := arg(args, 0); v {
	case "":
	case "on", "off":
		s.eng.SetPushdown(v == "on")
	default:
		return errUsage
	}
	s.printf("pushdown %s\n", either(s.eng.Pushdown(), "on", "off"))
	if len(args) > 0 && s.eng.Cache() != nil {
		s.printf("note: cached plans answer from observations and filter client-side; pushdown applies once the cache is off\n")
	}
	return nil
}

func (s *session) verify(args []string) error {
	rep, err := core.VerifiedFetch(s.dep, core.BackendOf(s.proto), args[0], 5)
	if err != nil {
		return fmt.Errorf("not coupled: %w", err)
	}
	s.printf("coupled: %s is version %d of %s\n", args[0], rep.Linked.Version, rep.Linked.UUID)
	return nil
}

func (s *session) props([]string) error {
	r, err := oracle.Properties(s.factory, s.seed)
	if err != nil {
		return err
	}
	yes := func(b bool) string { return either(b, "yes", "no") }
	s.printf("Table 1, %s (empirically probed): data-coupling %s, causal order %s, efficient query %s, persistence %s\n",
		r.Protocol, yes(r.Holds("coupling")), yes(r.Holds("causal-order")), yes(r.Holds("query")), yes(r.Holds("persistence")))
	return nil
}

// topology renders both placement directories: epoch ids, hash ranges and
// per-shard load (items / queued messages).
func (s *session) topology([]string) error {
	dep := s.dep
	s.printf("topology: %d WAL shard(s) x %d domain shard(s)\n", dep.Topo.WALShards, dep.Topo.DBShards)
	if c, ok, err := dep.ReadControl(); err == nil && ok {
		// An eventually consistent read of the control object can lag.
		persisted, live := sim.RestoreDirectory(c.DBDir), dep.DB.Directory()
		agree := either(persisted.Epoch() == live.Epoch() && persisted.Migrating() == live.Migrating(), "matches live routing",
			fmt.Sprintf("LAGS live routing (persisted epoch %d, live %d) — stale read or pending ResumeReshard", persisted.Epoch(), live.Epoch()))
		s.printf("control object (%s): state=%s, %s\n", core.FabricControlKey, c.State, agree)
	} else {
		s.printf("control object: none (fabric never resharded)\n")
	}
	renderDir := func(axis string, d *sim.Directory, load func(shard int) string) {
		active := d.Active()
		s.printf("%s: epoch %d, %d shard(s)", axis, active.ID, active.Shards)
		if t, ok := d.Target(); ok {
			s.printf(" -> migrating to epoch %d, %d shard(s)", t.ID, t.Shards)
		}
		s.printf("\n")
		for _, r := range active.Ranges {
			s.printf("  [%10d, ...) -> shard %d  %s\n", r.Start, r.Shard, load(r.Shard))
		}
	}
	renderDir("domains", dep.DB.Directory(), func(i int) string {
		return fmt.Sprintf("(%s: %d items)", dep.DB.Shard(i).Name(), dep.DB.Shard(i).ItemCount())
	})
	renderDir("wal", dep.WAL.Directory(), func(i int) string {
		return fmt.Sprintf("(%s: %d queued)", dep.WAL.Shard(i).Name(), dep.WAL.Shard(i).Len())
	})
	return nil
}

func (s *session) reshard(args []string) error {
	k, err := strconv.Atoi(args[0])
	if err != nil {
		return errUsage
	}
	st, err := s.dep.Reshard(context.Background(), core.Topology{WALShards: k, DBShards: k})
	if err != nil {
		return fmt.Errorf("reshard: %w", err)
	}
	s.printf("resharded %dx%d -> %dx%d (epoch %d): copied %d items in %d requests, GC'd %d in %d, moved %d WAL messages\n",
		st.From.WALShards, st.From.DBShards, st.To.WALShards, st.To.DBShards,
		st.Epoch, st.CopiedItems, st.CopyBatches, st.GCItems, st.GCBatches, st.WALMigrated)
	return nil
}

// autoscale drives the controller by hand: the session's clock is manual,
// so step advances it by dur (10s by default) and runs one controller step
// where a live fabric would run a daemon loop.
func (s *session) autoscale(args []string) error {
	if s.ctl == nil {
		s.ctl = autoscale.New(s.dep, autoscale.Config{})
	}
	switch arg(args, 0) {
	case "on":
		s.ctl.Enable()
	case "off":
		s.ctl.Disable()
	case "step":
		window, err := time.ParseDuration(cmp.Or(arg(args, 1), "10s"))
		if err != nil || window <= 0 {
			return errUsage
		}
		if !s.ctl.Enabled() {
			return errors.New(`autoscale is off; "autoscale on" first`)
		}
		s.env.Clock().Advance(window)
		if err := s.ctl.Step(context.Background()); err != nil {
			return fmt.Errorf("step: %w", err)
		}
	case "", "status":
	default:
		return errUsage
	}
	st := s.ctl.Status()
	s.printf("controller: %s, fabric K=%d\nsamples %d | grows %d shrinks %d holds %d deferred %d\n",
		either(st.Enabled, "on", "off"), st.K, st.Samples, st.Grows, st.Shrinks, st.Holds, st.Deferred)
	if st.Window > 0 {
		s.printf("last window: %s, %.1f ops/s/shard, max WAL backlog %d\n", st.Window, st.RatePerShard, st.MaxBacklog)
	}
	if r := st.Record; r != nil {
		s.printf("decision record #%d: %s K %d->%d (%s)\n", r.Seq, r.State, r.FromK, r.TargetK, r.Reason)
		if r.State == autoscale.RecordDone {
			s.printf("  reshard: copied %d items in %d requests, GC'd %d in %d\n", r.CopiedItems, r.CopyBatches, r.GCItems, r.GCBatches)
		}
	}
	if st.LastErr != "" {
		s.printf("last error: %s\n", st.LastErr)
	}
	return nil
}

func (s *session) faults(args []string) error {
	switch v := arg(args, 0); v {
	case "", "stats":
		u := s.env.Meter().Usage()
		s.printf("fault plan: %s\nfaults injected: %d\n", either(s.faultP > 0,
			fmt.Sprintf("uniform %.1f%% per request (half of mutating faults ambiguous)", s.faultP*100), "off"), u.Faults)
		for _, ep := range slices.Sorted(maps.Keys(u.FaultsByEndpoint)) {
			s.printf("  %-10s %d\n", ep, u.FaultsByEndpoint[ep])
		}
		s.printf("resilience: %s\n", s.dep.Res.Stats())
	case "off":
		s.env.InstallFaults(nil)
		s.faultP = 0
		s.printf("fault plan disarmed (forced faults, if any, stay armed)\n")
	default:
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return errUsage
		}
		s.env.InstallFaults(sim.UniformPlan(p, 0.5))
		s.faultP = p
		s.printf("armed: every request faults with probability %.1f%%; the resilient client retries\n", p*100)
	}
	return nil
}

func (s *session) tenants(args []string) error {
	switch arg(args, 0) {
	case "", "stats":
		u := s.env.Meter().Usage()
		if len(u.OpsByTenant) == 0 {
			s.printf("no tenant traffic yet; try: tenants demo\n")
			return nil
		}
		epoch := s.dep.WAL.Directory().Active()
		s.printf("%-12s %6s %18s %9s %7s %5s\n", "tenant", "band", "home wal shard", "admitted", "queued", "shed")
		for _, id := range slices.Sorted(maps.Keys(u.OpsByTenant)) {
			ops, band := u.OpsByTenant[id], frontdoor.BandFor(id)
			s.printf("%-12s %6d %18d %9d %7d %5d\n", id, band, epoch.RouteHash(band.Start()), ops.Admitted, ops.Queued, ops.Shed)
		}
		s.printf("resilience: %s\n", s.dep.Res.Stats())
		return nil
	case "demo":
	default:
		return errUsage
	}
	// The demo commits six transactions for a polite tenant, then six for a
	// greedy one whose quota admits one commit per 100 simulated seconds:
	// every greedy commit after its first queues. A shed needs concurrent
	// arrivals, which the manual clock cannot order by seed.
	p3, ok := s.proto.(*core.P3)
	if !ok {
		return errors.New("tenants demo needs the P3 protocol")
	}
	if s.door == nil {
		s.door = frontdoor.New(s.dep, p3, frontdoor.Config{})
	}
	for _, tn := range []*frontdoor.Tenant{
		s.door.Tenant("polite", frontdoor.Quota{Rate: 100, Burst: 16}),
		s.door.Tenant("greedy", frontdoor.Quota{Rate: 0.01, Burst: 1, Priority: frontdoor.PriorityLow}),
	} {
		for i := range 6 {
			path, ref := fmt.Sprintf("mnt/tenants/%s/%04d", tn.ID(), i), prov.Ref{UUID: tn.NewUUID(), Version: 1}
			if err := tn.Commit(core.FileObject{Path: path, Size: 512, Ref: ref}, []prov.Bundle{{Ref: ref, Type: prov.File, Name: path,
				Records: []prov.Record{{Attr: prov.AttrType, Value: "file"}, {Attr: prov.AttrName, Value: path}}}}); err != nil {
				return fmt.Errorf("%s commit: %w", tn.ID(), err)
			}
		}
	}
	if err := p3.Settle(); err != nil {
		return fmt.Errorf("settle: %w", err)
	}
	ops := s.env.Meter().Usage().OpsByTenant["greedy"]
	s.printf("committed 6 polite + 6 greedy transactions; greedy admitted %d, %d of them after queueing\nnow try: tenants stats\n",
		ops.Admitted, ops.Queued)
	return nil
}

func (s *session) log(args []string) error {
	switch arg(args, 0) {
	case "prove":
		if len(args) < 2 {
			return errUsage
		}
		return s.prove(args[1])
	case "", "head", "audit":
	default:
		return errUsage
	}
	head, err := s.tlog.Checkpoint()
	switch {
	case err != nil:
		return fmt.Errorf("checkpoint: %w", err)
	case head.TreeSize == 0:
		s.printf("transparency log empty (only P3 commits are sequenced)\n")
	case arg(args, 0) != "audit":
		s.printf("signed tree head: size %d, %s\n  root     %s\n  sequenced at sim t=%.3fs, %d leaves durable\n",
			head.TreeSize, either(head.Verify(s.tlog.Public()), "signature VERIFIES", "signature INVALID"),
			head.Root, time.Duration(head.SimNanos).Seconds(), s.tlog.PersistedSize())
	default:
		rep, err := translog.Audit(s.dep, s.tlog, translog.AuditOptions{})
		if err != nil {
			return fmt.Errorf("audit: %w", err)
		}
		s.printf("%s\n", rep)
		for _, f := range rep.ProofFailures {
			s.printf("  proof failure: %s\n", f)
		}
		for _, d := range rep.Divergences {
			s.printf("  divergence: %s %s (txn %s)\n", d.Kind, d.Item, d.Txn)
		}
		s.printf("merkle coupling: %d ancestry-verification mismatches this session\n", s.env.Meter().Usage().MerkleMismatches)
	}
	return nil
}

// prove builds and verifies the inclusion proof of the transaction named by
// uuid, or of the one whose leaf sequenced a path's provenance item.
func (s *session) prove(target string) error {
	txn, err := uuid.Parse(target)
	if err != nil {
		o, err := s.proto.Fetch(target)
		if err != nil {
			return err
		}
		item := o.Metadata[core.MetaUUID] + "_" + o.Metadata[core.MetaVersion]
		leaves := s.tlog.Leaves()
		i := slices.IndexFunc(leaves, func(lf translog.Leaf) bool {
			return slices.ContainsFunc(lf.Items, func(li translog.LeafItem) bool { return li.Name == item })
		})
		if i < 0 {
			return fmt.Errorf("no leaf sequences item %s (P1/P2 commit, or unlogged)", item)
		}
		target = leaves[i].Txn
	}
	if txn, err = uuid.Parse(target); err != nil {
		return err
	}
	p, err := s.tlog.ProveInclusion(txn)
	if err != nil {
		return err
	}
	s.printf("inclusion proof %s: leaf %d of %d, txn %s\n  root %s\n", either(p.Verify(), "VERIFIES", "FAILS"), p.Index, p.TreeSize, p.Txn, p.Root)
	for i, d := range p.Path {
		s.printf("  path[%d] %s\n", i, d)
	}
	s.printf("  leaf commits %d item(s) at epoch %d\n", len(p.Leaf.Items), p.Leaf.Epoch)
	return nil
}

func (s *session) bill([]string) error {
	u := s.env.Meter().Usage()
	s.printf("$%.4f  (%s)\n", u.Cost(0), u)
	return nil
}
