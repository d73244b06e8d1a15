package sim

// Band is one 1/256th slice of the 32-bit routing-hash space: the top eight
// bits of Hash32. Bands are the granularity at which tenant identity folds
// into placement (see internal/frontdoor): every uuid a tenant mints is
// steered into the tenant's band, so the tenant's items and WAL traffic
// co-shard — and migrate together across reshards — while every uuid-keyed
// mechanism (routed reads, the placement audit, the range directory) keeps
// working unchanged, because the routing key is still the uuid itself.
//
// A band never straddles a shard boundary at power-of-two shard counts or
// anything grown from them: even power-of-two layouts put boundaries at
// multiples of 2^32/2^k, and grow() splits ranges at midpoints, so every
// boundary stays a multiple of 2^26 for k ≤ 64 shards — band-aligned, since
// bands are 2^24 wide. A non-power-of-two even layout can cut through at
// most k-1 of the 256 bands; a tenant in one of those merely spans two
// adjacent shards instead of one.
type Band uint8

// BandOf returns the band a routing key hashes into.
func BandOf(key string) Band { return Band(Hash32(key) >> 24) }

// Start returns the first hash value inside the band.
func (b Band) Start() uint32 { return uint32(b) << 24 }
