package core

import (
	"fmt"
	"sync"

	"passcloud/internal/par"
	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// P1 is the standalone-cloud-store protocol (§4.3.1). Each file maps to a
// primary object holding the data and a second, uuid-named object holding
// all provenance recorded for the file so far. On close/flush the client:
//
//  1. PUTs the provenance object — if it already exists, GETs it, appends
//     the new bundles and PUTs the result;
//  2. PUTs the data object with metadata naming the provenance object's
//     uuid and the current version.
//
// Non-persistent objects (processes, pipes) get a provenance object with no
// primary object. Provenance survives data deletion because it lives in a
// separate object (data-independent persistence); queries must scan every
// provenance object because the store cannot index attributes.
type P1 struct {
	client

	mu sync.Mutex
	// payloads caches the accumulated encoding of every provenance object
	// this client has written (PA-S3fs caches provenance in memory). The
	// GET of the append path is still issued — the cache guards against
	// eventually-consistent GETs returning an older append state.
	payloads map[uuid.UUID][]byte
	locks    map[uuid.UUID]*sync.Mutex
}

// CrashP1BeforeData kills the client after it recorded provenance but before
// the data PUT — the data-coupling violation P1 permits (tests and the
// Table-1 probes arm it).
const CrashP1BeforeData sim.CrashPoint = "p1.client.before-data"

// NewP1 returns a P1 client bound to dep. The default per-commit
// provenance parallelism is modest: appends to the same provenance object
// serialize on a per-uuid lock anyway, and the client runs many commits in
// flight, so aggregate concurrency comes from the commit window.
func NewP1(dep *Deployment, opts Options) *P1 {
	return &P1{
		client:   client{dep, opts.withDefaults(4)},
		payloads: make(map[uuid.UUID][]byte),
		locks:    make(map[uuid.UUID]*sync.Mutex),
	}
}

// Name implements Protocol.
func (p *P1) Name() string { return "P1" }

// ProvKey is the store key of the provenance object for an object uuid.
func ProvKey(u uuid.UUID) string { return ProvPrefix + u.String() }

// Commit implements the protocol. Bundles arrive ancestors-first; in
// ordered mode they are written in that order and the data object last, so
// multi-object causal ordering holds (eventually). In the parallel mode the
// paper measured, everything is uploaded concurrently.
func (p *P1) Commit(obj FileObject, bundles []prov.Bundle) error {
	groups, order := groupByUUID(bundles)
	tasks := make([]func() error, 0, len(order)+1)
	for _, u := range order {
		bs := groups[u]
		tasks = append(tasks, func() error { return p.appendProv(u, bs) })
	}
	dataTask := func() error {
		return p.dep.Store.PutSized(DataKey(obj.Path), obj.Size, dataMeta(obj))
	}
	if p.dep.Env.Crashed(CrashP1BeforeData) {
		if err := par.Sequential(tasks); err != nil {
			return err
		}
		return fmt.Errorf("%w: client at %s", sim.ErrCrashed, CrashP1BeforeData)
	}
	if p.opts.Ordered {
		return par.Sequential(append(tasks, dataTask))
	}
	return par.Run(p.opts.ProvConns, append(tasks, dataTask))
}

// appendProv appends encoded bundles to the uuid's provenance object.
func (p *P1) appendProv(u uuid.UUID, bundles []prov.Bundle) error {
	lock := p.lockFor(u)
	lock.Lock()
	defer lock.Unlock()

	p.mu.Lock()
	cached, known := p.payloads[u]
	p.mu.Unlock()

	payload := cached
	if known {
		// The object exists: GET, append, PUT (the protocol as specified).
		// An eventually consistent GET may return a stale append state;
		// the in-memory copy is authoritative when longer.
		if o, err := p.dep.Store.Get(ProvKey(u)); err == nil && len(o.Data) > len(payload) {
			payload = o.Data
		}
	}
	for _, b := range bundles {
		payload = prov.AppendBundle(payload, b)
	}
	if err := p.dep.Store.Put(ProvKey(u), payload, nil); err != nil {
		return err
	}
	p.mu.Lock()
	p.payloads[u] = payload
	p.mu.Unlock()
	return nil
}

// lockFor returns the per-uuid append lock.
func (p *P1) lockFor(u uuid.UUID) *sync.Mutex {
	p.mu.Lock()
	defer p.mu.Unlock()
	l, ok := p.locks[u]
	if !ok {
		l = &sync.Mutex{}
		p.locks[u] = l
	}
	return l
}

// Settle implements Protocol; P1 commits synchronously.
func (p *P1) Settle() error { return nil }

// groupByUUID splits bundles by object uuid, preserving first-appearance
// order (which is topological because the collector emits ancestors first).
func groupByUUID(bundles []prov.Bundle) (map[uuid.UUID][]prov.Bundle, []uuid.UUID) {
	groups := make(map[uuid.UUID][]prov.Bundle)
	var order []uuid.UUID
	for _, b := range bundles {
		if _, seen := groups[b.Ref.UUID]; !seen {
			order = append(order, b.Ref.UUID)
		}
		groups[b.Ref.UUID] = append(groups[b.Ref.UUID], b)
	}
	return groups, order
}
