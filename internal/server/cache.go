package server

import (
	"container/list"
	"sync"

	"repro/internal/align"
)

// cacheKey identifies a search result: the serving epoch plus a 64-bit
// FNV-1a fingerprint of the query residues plus every knob that can
// change the hit list. The epoch pointer keys the generation the
// result was computed against — after a hot reload, pre-swap flights
// and entries are unreachable from post-swap requests because no new
// key can equal an old one. The key is a comparable value type so it
// can index the map directly; the query length rides along so a
// fingerprint collision would also need matching lengths (at 64 bits
// the combination is vanishing).
type cacheKey struct {
	ep         *epoch
	fp         uint64
	qlen       int
	kernel     align.Kernel
	topK       int
	maxCand    int
	exhaustive bool
	minScore   int
}

// fingerprint is FNV-1a over the residue codes.
func fingerprint(residues []uint8) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, r := range residues {
		h ^= uint64(r)
		h *= prime64
	}
	return h
}

func (n *normalized) cacheKey(ep *epoch) cacheKey {
	return cacheKey{
		ep:         ep,
		fp:         fingerprint(n.residues),
		qlen:       len(n.residues),
		kernel:     n.kernel,
		topK:       n.topK,
		maxCand:    n.maxCand,
		exhaustive: n.exhaustive,
		minScore:   n.minScore,
	}
}

// flight is one in-progress computation of a key's result. Followers
// — requests for the same key arriving while the leader computes —
// block on done and read hits afterwards, so N identical concurrent
// queries cost one scan. A leader that fails (deadline, shed, panic)
// aborts the flight instead: err is set, nothing is cached, and woken
// followers either inherit the error or retry for leadership
// themselves (server.search decides which per error).
type flight struct {
	done chan struct{}
	hits []Hit
	err  *APIError // non-nil: the flight aborted; hits is meaningless
}

// resultCache is the LRU result cache with single-flight admission.
// All three structures (LRU list, entry map, flight map) share one
// mutex: every operation is a few pointer moves, so a single lock is
// cheaper than juggling two that must be taken together anyway.
type resultCache struct {
	mu      sync.Mutex
	cap     int // <= 0 disables caching (flights still dedup)
	ll      *list.List
	entries map[cacheKey]*list.Element
	flights map[cacheKey]*flight

	hits, misses, coalesced int64 // under mu; read via counters()
}

type cacheEntry struct {
	key  cacheKey
	hits []Hit
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[cacheKey]*list.Element),
		flights: make(map[cacheKey]*flight),
	}
}

// begin admits one request: the result is either a cache hit
// (hits non-nil, leader false, f nil), a follower ticket (f non-nil,
// leader false — wait on f.done, then read f.hits), or leadership
// (f non-nil, leader true — compute, then call finish).
func (c *resultCache) begin(key cacheKey) (cached []Hit, f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).hits, nil, false
	}
	if fl, ok := c.flights[key]; ok {
		c.coalesced++
		return nil, fl, false
	}
	c.misses++
	fl := &flight{done: make(chan struct{})}
	c.flights[key] = fl
	return nil, fl, true
}

// finish publishes a leader's result: the flight resolves (waking
// followers) and the result enters the LRU, evicting from the cold end
// when over capacity.
func (c *resultCache) finish(key cacheKey, f *flight, hits []Hit) {
	c.mu.Lock()
	f.hits = hits
	delete(c.flights, key)
	if c.cap > 0 {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, hits: hits})
		for c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.entries, oldest.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	close(f.done)
}

// abort resolves a leader's flight without publishing a result: the
// flight leaves the map, followers wake with err, and the cache stays
// untouched — a failed computation must never be served to anyone who
// didn't fail with it.
func (c *resultCache) abort(key cacheKey, f *flight, err *APIError) {
	c.mu.Lock()
	f.err = err
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)
}

// flush empties the LRU; Server.Swap calls it so results computed
// against the old epoch's data never answer a post-swap request. The
// flight map is left alone: in-flight leaders still need to resolve
// their followers, and their old-epoch keys are unreachable from any
// new request anyway. A leader finishing after the flush may push one
// dead old-epoch entry back into the LRU — it can never be hit again
// and ages out the cold end like any other entry.
func (c *resultCache) flush() {
	c.mu.Lock()
	c.ll.Init()
	c.entries = make(map[cacheKey]*list.Element)
	c.mu.Unlock()
}

// len reports the resident entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// counters snapshots the hit/miss/coalesced tallies.
func (c *resultCache) counters() (hits, misses, coalesced int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.coalesced
}
