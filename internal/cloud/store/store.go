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
	"sort"
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
type Metadata map[string]string

// clone copies metadata so callers cannot mutate stored state.
func (m Metadata) clone() Metadata {
	if m == nil {
		return nil
	}
	c := make(Metadata, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Object is the result of a GET: data plus metadata. Size is the object's
// logical length; Data is nil for synthetic objects stored with PutSized
// (large workload payloads whose content is never examined — only moved).
type Object struct {
	Key      string
	Data     []byte
	Size     int64
	Metadata Metadata
	ModTime  time.Duration // virtual time of the PUT that produced it
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
	keys map[string][]*version // committed history, oldest first
}

// New creates an empty bucket bound to env.
func New(env *sim.Env) *Store {
	return &Store{env: env, ep: env.Endpoint(Endpoint, 0), keys: make(map[string][]*version)}
}

// Env returns the environment the store charges against.
func (s *Store) Env() *sim.Env { return s.env }

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
		meta:      meta.clone(),
		committed: now,
		visibleAt: now + s.env.StalenessWindow(),
	}
	s.mu.Lock()
	s.commitLocked(key, v)
	s.mu.Unlock()
	return ferr
}

// commitLocked appends v to key's history and trims history that can no
// longer be observed. Storage accounting tracks the latest version only,
// matching how S3 bills.
func (s *Store) commitLocked(key string, v *version) {
	hist := s.keys[key]
	if n := len(hist); n > 0 {
		prev := hist[n-1]
		if !prev.deleted {
			s.env.Meter().AddStorage(-prev.size)
		}
		// Two committed versions of history suffice: one in-flight
		// staleness window plus the new state.
		if n > 1 {
			hist = hist[n-1:]
		}
	}
	if !v.deleted {
		s.env.Meter().AddStorage(v.size)
	}
	s.keys[key] = append(hist, v)
}

// observe picks the version of key a read sees at virtual time now:
// the newest version whose staleness window has passed, or — while inside a
// window — either side of the update, chosen pseudo-randomly (the replica
// the request happened to hit).
func (s *Store) observe(key string, now time.Duration) *version {
	hist := s.keys[key]
	if len(hist) == 0 {
		return nil
	}
	idx := len(hist) - 1
	for idx > 0 && hist[idx].visibleAt > now && s.env.Rand().Bool(0.5) {
		idx--
	}
	v := hist[idx]
	if idx == 0 && v.visibleAt > now && s.env.Rand().Bool(0.5) {
		// The key's very first write may be invisible on a stale replica.
		return nil
	}
	return v
}

// Get retrieves the object stored under key.
func (s *Store) Get(key string) (Object, error) {
	var o Object
	err := s.ep.Do(func() error {
		var err error
		o, err = s.getOnce(key)
		return err
	})
	return o, err
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
		o = Object{Key: key, Size: v.size, Metadata: v.meta.clone(), ModTime: v.committed}
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
	var m Metadata
	err := s.ep.Do(func() error {
		var err error
		m, err = s.headOnce(key)
		return err
	})
	return m, err
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
	return v.meta.clone(), nil
}

// Copy performs the server-side COPY the protocols use in place of rename.
// The destination receives the source's data; metadata is replaced by meta
// if non-nil (S3's REPLACE directive), else copied.
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
	m := v.meta
	if meta != nil {
		m = meta
	}
	var data []byte
	if v.data != nil {
		data = append([]byte(nil), v.data...)
	}
	now := s.env.Now()
	s.commitLocked(dst, &version{
		data:      data,
		size:      v.size,
		meta:      m.clone(),
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
	if len(s.keys[key]) > 0 {
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
	var page ListPage
	err := s.ep.Do(func() error {
		var err error
		page, err = s.listOnce(prefix, marker, max)
		return err
	})
	return page, err
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
	for k := range s.keys {
		if !strings.HasPrefix(k, prefix) || k <= marker {
			continue
		}
		if v := s.observe(k, now); v != nil && !v.deleted {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
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
	hist := s.keys[key]
	if len(hist) == 0 {
		return 0, false
	}
	v := hist[len(hist)-1]
	if v.deleted {
		return 0, false
	}
	if v.accessed > v.committed {
		return v.accessed, true
	}
	return v.committed, true
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
	for _, hist := range s.keys {
		v := hist[len(hist)-1]
		if !v.deleted {
			st.Objects++
			st.Bytes += v.size
		}
	}
	return st
}
