package core

import "passcloud/internal/prov"

// S3fs is the provenance-free baseline: the unmodified user-level file
// system interface to the object store that the evaluation compares every
// protocol against. Commits upload the data object only; any provenance
// bundles handed in are discarded (a vanilla kernel collects none).
type S3fs struct{ client }

// NewS3fs returns the baseline bound to dep.
func NewS3fs(dep *Deployment, opts Options) *S3fs {
	return &S3fs{client{dep, opts.withDefaults(16)}}
}

// Name implements Protocol.
func (s *S3fs) Name() string { return "S3fs" }

// Commit uploads the data object. The metadata link is absent: without
// PASS there is no provenance to link to.
func (s *S3fs) Commit(obj FileObject, bundles []prov.Bundle) error {
	return s.dep.Store.PutSized(DataKey(obj.Path), obj.Size, nil)
}

// Settle implements Protocol; the baseline has no asynchronous work.
func (s *S3fs) Settle() error { return nil }
