// Package store implements the simulated cloud object store (Amazon S3 as
// of 2009/2010): a flat namespace of objects addressed by key, each carrying
// opaque data plus user metadata as <name,value> pairs.
//
// The API surface is exactly what the paper's protocols rely on: PUT
// (atomically replacing data and metadata, last writer wins), GET, HEAD,
// COPY (server side, the substitute for the missing rename), DELETE, and
// LIST with prefix and pagination.
//
// Consistency is eventual: a GET issued shortly after a PUT may be served by
// a replica that has not seen the update and return the previous state of
// the object. The staleness window of every write is sampled from the
// environment; running the environment in strict mode makes the store behave
// like Azure Blob instead.
package store

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"

	"passcloud/internal/sim"
)

// ErrNoSuchKey is returned by reads of keys that do not exist (or that a
// stale replica has not yet heard of).
var ErrNoSuchKey = errors.New("store: no such key")

// Endpoint is the store's fault-injection and retry endpoint name (one
// bucket, one service partition).
const Endpoint = "s3"

// Metadata is the user metadata stored with an object. Values are small
// strings, mirroring S3's x-amz-meta headers.
//
// Put stores a copy of the map it is given, but Copy keeps the map itself,
// as the queue keeps a sent body: the caller gives it up. A stored map (or
// data) is never written, so versions share them; Get and Head return copies.
type Metadata map[string]string

// Object is the result of a GET: data plus metadata. Size is the object's
// logical length; Data is nil for synthetic objects stored with PutSized
// (large workload payloads whose content is never examined — only moved).
type Object struct {
	Key      string
	Data     []byte
	Size     int64
	Metadata Metadata
}

// version is one committed state of a key. visibleAt implements eventual
// consistency: reads before visibleAt may be served the previous version.
type version struct {
	data      []byte
	size      int64 // logical size; len(data) unless synthetic
	meta      Metadata
	deleted   bool
	committed time.Duration
	visibleAt time.Duration
	accessed  time.Duration // last read, used by the cleaner's age policy
}

// Store is one bucket of the simulated object service.
type Store struct {
	env *sim.Env
	ep  sim.Endpoint // the request envelope, on the default S3 gates

	mu   sync.Mutex
	keys map[string]history
}

// history is what can be observed of a key: its last two committed
// versions, one in-flight staleness window plus the new state.
type history struct{ prev, last *version }

// New creates an empty bucket bound to env.
func New(env *sim.Env) *Store {
	return &Store{env: env, ep: env.Endpoint(Endpoint, 0), keys: make(map[string]history)}
}

// Put atomically stores data and metadata under key, overwriting any
// previous version (last writer wins).
func (s *Store) Put(key string, data []byte, meta Metadata) error {
	return s.put(s.ep, key, append([]byte(nil), data...), int64(len(data)), meta)
}

// PutSized stores a synthetic object of the given logical size without
// materializing its content. Transfer time, cost and storage accounting all
// use size; GET returns an Object with nil Data. Workload data payloads
// (hundreds of MB each) use this form.
func (s *Store) PutSized(key string, size int64, meta Metadata) error {
	return s.put(s.ep, key, nil, size, meta)
}

// PutSizedContext is PutSized made for the tenant ctx carries
// (sim.WithTenant), whose own retry budget and breaker its attempts run
// against.
func (s *Store) PutSizedContext(ctx context.Context, key string, size int64, meta Metadata) error {
	return s.put(s.ep.For(ctx), key, nil, size, meta)
}

func (s *Store) put(ep sim.Endpoint, key string, data []byte, size int64, meta Metadata) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	return ep.Do(func() error { return s.putOnce(key, data, size, meta) })
}

// putOnce is one service attempt of a PUT. An ambiguous fault (applied)
// commits the write and still reports the error — retried PUTs replace the
// same content, so convergence is free.
func (s *Store) putOnce(key string, data []byte, size int64, meta Metadata) error {
	ferr, applied := s.ep.Fault(sim.OpS3Put)
	if ferr != nil && !applied {
		return ferr
	}
	s.ep.Exec(sim.OpS3Put, int(size), 0)
	now := s.env.Now()
	v := &version{
		data:      data,
		size:      size,
		meta:      maps.Clone(meta),
		committed: now,
		visibleAt: now + s.env.StalenessWindow(),
	}
	s.mu.Lock()
	s.commitLocked(key, v)
	s.mu.Unlock()
	return ferr
}

// commitLocked makes v key's last version. Storage accounting tracks the
// latest version only, matching how S3 bills.
func (s *Store) commitLocked(key string, v *version) {
	h := s.keys[key]
	if h.last != nil && !h.last.deleted {
		s.env.Meter().AddStorage(-h.last.size)
	}
	if !v.deleted {
		s.env.Meter().AddStorage(v.size)
	}
	s.keys[key] = history{prev: h.last, last: v}
}

// observe picks the version of key a read sees at virtual time now:
// the newest version whose staleness window has passed, or — while inside a
// window — either side of the update, chosen pseudo-randomly (the replica
// the request happened to hit).
func (s *Store) observe(key string, now time.Duration) *version {
	h, ok := s.keys[key]
	if !ok {
		return nil
	}
	v := h.last
	if h.prev != nil && v.visibleAt > now && s.env.Rand().Bool(0.5) {
		v = h.prev
	}
	if (h.prev == nil || v == h.prev) && v.visibleAt > now && s.env.Rand().Bool(0.5) {
		// The key's very first write may be invisible on a stale replica.
		return nil
	}
	return v
}

// Get retrieves the object stored under key.
func (s *Store) Get(key string) (Object, error) {
	return sim.Call(s.ep, func() (Object, error) { return s.getOnce(key) })
}

func (s *Store) getOnce(key string) (Object, error) {
	if ferr, _ := s.ep.Fault(sim.OpS3Get); ferr != nil {
		return Object{}, ferr
	}
	s.mu.Lock()
	v := s.observe(key, s.env.Now())
	var o Object
	ok := v != nil && !v.deleted
	if ok {
		v.accessed = s.env.Now()
		o = Object{Key: key, Size: v.size, Metadata: maps.Clone(v.meta)}
		if v.data != nil {
			o.Data = append([]byte(nil), v.data...)
		}
	}
	s.mu.Unlock()
	s.ep.Exec(sim.OpS3Get, int(o.Size), 0) // a miss moves no bytes
	if !ok {
		return Object{}, fmt.Errorf("%w: %s", ErrNoSuchKey, key)
	}
	return o, nil
}

// Head retrieves only the metadata (and existence) of key.
func (s *Store) Head(key string) (Metadata, error) {
	return sim.Call(s.ep, func() (Metadata, error) { return s.headOnce(key) })
}

func (s *Store) headOnce(key string) (Metadata, error) {
	if ferr, _ := s.ep.Fault(sim.OpS3Head); ferr != nil {
		return nil, ferr
	}
	s.ep.Exec(sim.OpS3Head, 0, 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.observe(key, s.env.Now())
	if v == nil || v.deleted {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchKey, key)
	}
	return maps.Clone(v.meta), nil
}

// Copy performs the server-side COPY the protocols use in place of rename.
// The destination receives the source's data; metadata is replaced by meta
// if non-nil (S3's REPLACE directive) and kept (see Metadata), else copied.
func (s *Store) Copy(src, dst string, meta Metadata) error {
	return s.ep.Do(func() error { return s.copyOnce(src, dst, meta) })
}

func (s *Store) copyOnce(src, dst string, meta Metadata) error {
	ferr, applied := s.ep.Fault(sim.OpS3Copy)
	if ferr != nil && !applied {
		return ferr
	}
	s.ep.Exec(sim.OpS3Copy, 0, 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.observe(src, s.env.Now())
	if v == nil || v.deleted {
		return fmt.Errorf("%w: %s", ErrNoSuchKey, src)
	}
	if meta == nil {
		meta = v.meta
	}
	now := s.env.Now()
	s.commitLocked(dst, &version{
		data:      v.data,
		size:      v.size,
		meta:      meta,
		committed: now,
		visibleAt: now + s.env.StalenessWindow(),
	})
	return ferr
}

// Delete removes key. Deleting a missing key succeeds, as on S3.
func (s *Store) Delete(key string) error {
	return s.ep.Do(func() error { return s.deleteOnce(key) })
}

func (s *Store) deleteOnce(key string) error {
	ferr, applied := s.ep.Fault(sim.OpS3Delete)
	if ferr != nil && !applied {
		return ferr
	}
	s.ep.Exec(sim.OpS3Delete, 0, 0)
	now := s.env.Now()
	s.mu.Lock()
	if _, ok := s.keys[key]; ok {
		s.commitLocked(key, &version{deleted: true, committed: now, visibleAt: now + s.env.StalenessWindow()})
	}
	s.mu.Unlock()
	return ferr
}

// ListPage is one page of LIST results.
type ListPage struct {
	Keys        []string
	IsTruncated bool
	NextMarker  string
}

// maxListKeys mirrors S3's 1000-key page limit.
const maxListKeys = 1000

// List returns keys beginning with prefix, lexicographically after marker,
// up to max per page (capped at 1000 as on S3).
func (s *Store) List(prefix, marker string, max int) (ListPage, error) {
	return sim.Call(s.ep, func() (ListPage, error) { return s.listOnce(prefix, marker, max) })
}

func (s *Store) listOnce(prefix, marker string, max int) (ListPage, error) {
	if ferr, _ := s.ep.Fault(sim.OpS3List); ferr != nil {
		return ListPage{}, ferr
	}
	if max <= 0 || max > maxListKeys {
		max = maxListKeys
	}
	now := s.env.Now()
	s.mu.Lock()
	var keys []string
	for k, h := range s.keys {
		// A delete every replica sees takes no draw, so it is left out here.
		if strings.HasPrefix(k, prefix) && k > marker && !(h.last.deleted && h.last.visibleAt <= now) {
			keys = append(keys, k)
		}
	}
	// Observed in name order, so the seed decides which key each draw is for.
	slices.Sort(keys)
	keys = slices.DeleteFunc(keys, func(k string) bool {
		v := s.observe(k, now)
		return v == nil || v.deleted
	})
	s.mu.Unlock()
	page := ListPage{}
	if len(keys) > max {
		page.Keys = keys[:max]
		page.IsTruncated = true
		page.NextMarker = keys[max-1]
	} else {
		page.Keys = keys
	}
	respBytes := 0
	for _, k := range page.Keys {
		respBytes += len(k) + 64 // rough XML envelope per key
	}
	s.ep.Exec(sim.OpS3List, respBytes, 0)
	return page, nil
}

// ListAll drains every page of a prefix listing and reports the number of
// LIST requests it took.
func (s *Store) ListAll(prefix string) (keys []string, requests int, err error) {
	marker := ""
	for {
		page, err := s.List(prefix, marker, maxListKeys)
		if err != nil {
			return nil, requests, err
		}
		requests++
		keys = append(keys, page.Keys...)
		if !page.IsTruncated {
			return keys, requests, nil
		}
		marker = page.NextMarker
	}
}

// LastAccess returns the virtual time key was last read, or zero. The
// cleaner daemon uses it to age out abandoned temporary objects.
func (s *Store) LastAccess(key string) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.keys[key].last
	if v == nil || v.deleted {
		return 0, false
	}
	return max(v.accessed, v.committed), true
}

// Stats reports the store's committed footprint (latest versions only).
type Stats struct {
	Objects int
	Bytes   int64
}

// Stats returns the current footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	for _, h := range s.keys {
		if v := h.last; !v.deleted {
			st.Objects++
			st.Bytes += v.size
		}
	}
	return st
}
