// Package oracle is the one correctness check of a settled deployment.
// Check compares what the stores hold with what a run committed and names
// every violation it finds by the property it breaks:
//
//   - count: the provenance domain holds exactly Expect.Items distinct items;
//   - audit: core.AuditFabric finds no item misplaced or duplicated;
//   - wal: no packet is left on the WAL;
//   - tmp: no object is left under tmp/;
//   - pending: Expect.P3, when given, holds no half-assembled transaction;
//   - control: the fabric's control record, where there is one, is stable;
//   - attrs: each of Expect.Attrs is stored with exactly its attributes;
//   - log: Expect.Log, when given, audits clean (checkpoint it first);
//   - coupling: core.CheckCoupling holds for each of Expect.Objects, and its
//     data links the version it was committed at;
//   - causal-order: every cross reference of every stored bundle names a
//     stored bundle, over the whole store: the database's items, or P1's
//     provenance objects.
//
// Check stops at nothing: it runs every check, and returns an error only
// when a listing or an audit cannot be read. Its callers:
//
//   - internal/fabric's TestCrashRecovery, after Recover: the never-crashed
//     twin's item count, the committed objects, the fabric's P3 and its
//     checkpointed log;
//   - internal/bench's scenario harnesses, after the run: the transaction
//     set's items and objects (the tenant harness adds the abuser's whose
//     data landed) and the fabric's P3, no log (the tamper harness audits
//     against its witness itself); its consistency ablation, no P3;
//   - Properties, after a protocol's pipeline and after its client crash:
//     its backend, the items and objects of the commits that returned, and
//     its P3 if it is one.
package oracle

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"passcloud/internal/cloud/sdb"
	"passcloud/internal/core"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/translog"
)

// Expect is what a run committed, and so what the deployment must hold.
type Expect struct {
	Backend core.Backend
	Items   int               // distinct items in the provenance domain
	Objects []core.FileObject // committed objects, each at the version it must link
	Attrs   []sdb.PutRequest  // a sample of items, with the attributes each must hold
	P3      *core.P3          // optional
	Log     *translog.Log     // optional; checkpointed
}

// Violation is one finding, named by the property it breaks.
type Violation struct {
	Property string
	Detail   string
}

func (v Violation) String() string { return v.Property + ": " + v.Detail }

// Report is every violation Check found, in the order of its checks.
type Report struct{ Violations []Violation }

// Clean reports whether Check found nothing.
func (r Report) Clean() bool { return len(r.Violations) == 0 }

func (r *Report) add(property, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{property, fmt.Sprintf(format, args...)})
}

// Check lets every staleness window pass and checks dep against want.
func Check(dep *core.Deployment, want Expect) (Report, error) {
	var r Report
	dep.Settle()
	items, _, _, err := dep.DB.SelectAllQuery(sdb.Query{Domain: core.DomainName, Consistent: true})
	if err != nil {
		return r, err
	}
	if len(items) != want.Items {
		r.add("count", "%d items stored, %d committed", len(items), want.Items)
	}
	if mis, dup, err := core.AuditFabric(dep); err != nil {
		return r, err
	} else if mis != 0 || dup != 0 {
		r.add("audit", "%d items misplaced, %d duplicated", mis, dup)
	}
	if n := dep.WAL.Len(); n != 0 {
		r.add("wal", "%d packets left", n)
	}
	keys, _, err := dep.Store.ListAll(core.TmpPrefix)
	if err != nil {
		return r, err
	}
	if len(keys) != 0 {
		r.add("tmp", "%v left", keys)
	}
	if want.P3 != nil && want.P3.PendingTxns() != 0 {
		r.add("pending", "%d transactions half-assembled", want.P3.PendingTxns())
	}
	if c, ok, err := dep.ReadControl(); err != nil {
		return r, err
	} else if ok && c.State != core.ControlStable {
		r.add("control", "state %q, want stable", c.State)
	}
	for _, req := range want.Attrs {
		if it, err := dep.DB.GetAttributes(req.Item); err != nil || !sameAttrs(it.Attrs, req.Attrs) {
			r.add("attrs", "%s holds %v (err %v), committed with %v", req.Item, it.Attrs, err, req.Attrs)
		}
	}
	if want.Log != nil {
		a, err := translog.Audit(dep, want.Log, translog.AuditOptions{})
		for i := 0; sim.IsTransient(err) && i < 20; i++ { // a read-only pass: retry it whole
			a, err = translog.Audit(dep, want.Log, translog.AuditOptions{})
		}
		if err != nil {
			return r, err
		}
		if !a.Clean() {
			r.add("log", "%v", a)
		}
	}
	for _, o := range want.Objects {
		if c, err := core.CheckCoupling(dep, want.Backend, o.Path); err != nil || !c.Coupled || c.Linked != o.Ref {
			r.add("coupling", "%s links %s, committed %s, and its provenance reaches v%d (err %v)", o.Path, c.Linked, o.Ref, c.MaxProvVer, err)
		}
	}
	bundles, err := core.BundlesFromItems(items)
	if want.Backend == core.BackendS3 {
		bundles, err = core.ProvObjects(dep)
	}
	if err != nil {
		return r, err
	}
	stored := make(map[prov.Ref]bool, len(bundles))
	for _, b := range bundles {
		stored[b.Ref] = true
	}
	for _, b := range bundles {
		for _, x := range b.Ancestors() {
			if !stored[x] {
				r.add("causal-order", "%s refers to %s, which is not stored", b.Ref, x)
			}
		}
	}
	return r, nil
}

// sameAttrs compares two attribute sets: SimpleDB keeps no order.
func sameAttrs(a, b []sdb.Attr) bool {
	sorted := func(s []sdb.Attr) []sdb.Attr {
		return slices.SortedFunc(slices.Values(s), func(x, y sdb.Attr) int {
			return cmp.Or(strings.Compare(x.Name, y.Name), strings.Compare(x.Value, y.Value))
		})
	}
	return slices.Equal(sorted(a), sorted(b))
}
