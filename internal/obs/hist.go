package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The log-linear bucket layout. The previous service histogram used
// pure power-of-two buckets, which makes every reported quantile an
// upper bound conservative to at most 2x — fine for spotting a
// misbehaving stage, useless for stating an SLO. Splitting each power
// of two into 4 linear sub-buckets bounds a bucket's relative width to
// 25%, and linear interpolation inside the sub-bucket tightens the
// reported quantile further. Layout, in microseconds:
//
//	buckets 0..3        one bucket per integer value 0, 1, 2, 3
//	buckets 4..99       4 linear sub-buckets per power of two,
//	                    majors 2..25 (values 4µs .. 2^26µs ≈ 67s)
//	bucket  100         overflow (≥ 2^26 µs)
const (
	subBits    = 2            // log2 of sub-buckets per power of two
	subCount   = 1 << subBits // 4
	minMajor   = subBits      // first major split into sub-buckets
	maxMajor   = 26           // 2^26 µs ≈ 67 s, past any serveable latency
	NumBuckets = subCount + (maxMajor-minMajor)*subCount + 1
)

// BucketIndex maps a microsecond value to its bucket.
func BucketIndex(us int64) int {
	if us < 0 {
		us = 0
	}
	if us < subCount {
		return int(us)
	}
	major := bits.Len64(uint64(us)) - 1
	if major >= maxMajor {
		return NumBuckets - 1
	}
	sub := (us - 1<<major) >> (uint(major) - subBits)
	return subCount + (major-minMajor)*subCount + int(sub)
}

// BucketBounds returns bucket i's value range [lo, hi): every
// observation counted in bucket i satisfies lo <= v < hi.
func BucketBounds(i int) (lo, hi int64) {
	switch {
	case i < subCount:
		return int64(i), int64(i) + 1
	case i >= NumBuckets-1:
		return 1 << maxMajor, math.MaxInt64
	}
	major := minMajor + (i-subCount)/subCount
	sub := int64((i - subCount) % subCount)
	lo = 1<<major + sub<<(uint(major)-subBits)
	return lo, lo + 1<<(uint(major)-subBits)
}

// Histogram is a lock-free log-linear latency histogram. Observing is
// a bucket-index computation plus three atomic adds (bucket, count,
// sum) and a rarely-contended max CAS — no locks, no allocation.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sumUs   atomic.Int64
	maxUs   atomic.Int64
}

// NewHistogram returns a zeroed histogram, ready to register.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveUs(d.Microseconds()) }

// ObserveUs records one microsecond value (negative clamps to 0).
func (h *Histogram) ObserveUs(us int64) {
	if us < 0 {
		us = 0
	}
	h.buckets[BucketIndex(us)].Add(1)
	h.count.Add(1)
	h.sumUs.Add(us)
	for {
		cur := h.maxUs.Load()
		if us <= cur || h.maxUs.CompareAndSwap(cur, us) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram, the unit
// quantiles are computed from. Counts is indexed like the live
// buckets (BucketBounds gives each entry's range).
type HistSnapshot struct {
	Counts [NumBuckets]int64
	Count  int64
	SumUs  int64
	MaxUs  int64
}

// Snapshot copies the histogram's current state. Concurrent observers
// may land between bucket and count reads; the skew is at most a few
// in-flight observations, irrelevant for quantiles.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range s.Counts {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.SumUs = h.sumUs.Load()
	s.MaxUs = h.maxUs.Load()
	return s
}

// MeanUs is the mean of all observations (0 when empty).
func (s HistSnapshot) MeanUs() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumUs) / float64(s.Count)
}

// Quantile returns the q-quantile (q in [0, 1]) with linear
// interpolation inside the containing sub-bucket, clamped to the
// observed maximum. It is nondecreasing in q: the target rank is
// monotone, sub-bucket bounds tile the axis without gaps, and the
// interpolation is monotone within a bucket (hist_test pins this).
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	target := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo, hi := BucketBounds(i)
			if hi > s.MaxUs+1 {
				hi = s.MaxUs + 1 // overflow/top bucket: the real ceiling is the observed max
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - float64(cum)) / float64(c)
			v := float64(lo) + frac*float64(hi-lo)
			us := int64(math.Ceil(v))
			if us > s.MaxUs {
				us = s.MaxUs
			}
			if us < lo {
				us = lo
			}
			return us
		}
		cum += c
	}
	return s.MaxUs
}
