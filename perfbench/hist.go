package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits sets the histogram's resolution: 2^subBits buckets per power
// of two, so a bucket is at most 1/128 (0.8%) of its value wide.
const subBits = 7

const histBuckets = (64 - subBits) << subBits

// hist is a log-linear histogram of non-negative int64 samples. Record is
// a few atomic adds and never allocates, so callers and decorators on any
// goroutine can share one without changing the allocation profile of the
// program they measure. (obs.Histogram's power-of-two buckets are too
// coarse to compare runs by.)
type hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < 1<<(subBits+1) {
		return int(u)
	}
	shift := bits.Len64(u) - subBits - 1
	return (shift+1)<<subBits + int(u>>shift) - 1<<subBits
}

// bucketRange returns bucket i's lower bound and width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<(subBits+1) {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	top := uint64(i&(1<<subBits-1) + 1<<subBits)
	return float64(top << shift), float64(uint64(1) << shift)
}

func (h *hist) record(v int64) {
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

func (h *hist) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.n.Store(0)
	h.sum.Store(0)
}

// mean returns the exact mean; 0 for an empty histogram.
func (h *hist) mean() float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

func (h *hist) recordDur(d time.Duration) { h.record(int64(d)) }

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile, interpolated linearly inside its
// bucket; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, width := bucketRange(i)
			return lo + width*(rank-cum)/c
		}
		cum += c
	}
	lo, width := bucketRange(histBuckets - 1)
	return lo + width
}
