package core

import (
	"fmt"

	"passcloud/internal/par"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
)

// P2 is the cloud-store-with-cloud-database protocol (§4.3.2). Data objects
// go to the object store exactly as in P1; provenance goes to the database
// service as one item per object version, which makes provenance queries
// efficient (every attribute is indexed). On close/flush the client:
//
//  1. spills provenance values larger than 1 KB to store objects and
//     rewrites the attribute to a pointer;
//  2. stores the provenance items with BatchPutAttributes calls of at most
//     25 items each;
//  3. PUTs the data object with metadata naming the uuid and version.
//
// Like P1, P2 provides no data-coupling — the database and store are
// updated by separate requests — but coupling violations are detectable by
// comparing the version in the object's metadata with the versions present
// in the database.
//
// On a sharded deployment P2's item writes partition by object uuid into
// their home domains exactly as P3's commit daemon does (DomainSet.BulkPut), and in
// ordered mode batches are cut at shard boundaries so the ancestors-first
// write order holds globally, not just per domain.
type P2 struct{ client }

// CrashP2BeforeData kills the client between the provenance write and the
// data write.
const CrashP2BeforeData sim.CrashPoint = "p2.client.before-data"

// NewP2 returns a P2 client bound to dep.
func NewP2(dep *Deployment, opts Options) *P2 {
	// SimpleDB stops improving around 40 connections (§5.1), so that is
	// the default provenance pool.
	return &P2{client{dep, opts.withDefaults(40)}}
}

// Name implements Protocol.
func (p *P2) Name() string { return "P2" }

// Commit implements the protocol.
func (p *P2) Commit(obj FileObject, bundles []prov.Bundle) error {
	reqs, err := ItemsForBundles(p.dep.Store, bundles)
	if err != nil {
		return err
	}
	provTask := func() error {
		if err := p.dep.DB.BulkPut(reqs, p.opts.ProvConns, p.opts.Ordered); err != nil {
			return err
		}
		// P2 has no transaction uuid — notices carry the touched items only.
		p.dep.publishCommit([]TxnCommit{{Reqs: reqs}})
		return nil
	}
	dataTask := func() error {
		return p.dep.Store.PutSized(DataKey(obj.Path), obj.Size, dataMeta(obj))
	}
	if p.dep.Env.Crashed(CrashP2BeforeData) {
		if err := provTask(); err != nil {
			return err
		}
		return fmt.Errorf("%w: client at %s", sim.ErrCrashed, CrashP2BeforeData)
	}
	if p.opts.Ordered {
		return par.Sequential([]func() error{provTask, dataTask})
	}
	return par.Run(2, []func() error{provTask, dataTask})
}

// Settle implements Protocol; P2 commits synchronously.
func (p *P2) Settle() error { return nil }
