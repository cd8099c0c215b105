package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/core"
)

// LatencyHist is a fixed-bucket latency histogram with a log-linear bucket
// layout (HDR-style): exact microsecond buckets below 32 µs, then 32 linear
// sub-buckets per power of two, giving a worst-case relative error of ~3%
// from a few microseconds up past an hour. The layout is identical for every
// histogram, so histograms merge bucket-by-bucket (per-worker service-time
// histograms of a multi-worker thttpd sum into one server-wide distribution).
//
// The struct holds its buckets inline: Observe performs no allocation, no
// sorting and no floating-point work, so it can sit on the dispatch hot path
// (one observation per served request) without perturbing either run time or
// determinism. All derived statistics (quantiles, mean) are computed from the
// integer bucket counts with fixed arithmetic, so two runs that observe the
// same virtual-time latencies produce bit-identical percentile output.
type LatencyHist struct {
	counts [histBuckets]int64
	total  int64
	sumUs  int64
	minUs  int64
	maxUs  int64
}

const (
	// histSubBits fixes 2^histSubBits linear sub-buckets per power of two.
	histSubBits = 5
	histSubs    = 1 << histSubBits
	// histBuckets' top bucket starts at 63<<30 µs (≈19 hours) — far beyond
	// any virtual-time latency the simulation can produce; larger
	// observations clamp into that final bucket.
	histBuckets = 1024
)

// histIndex maps a non-negative microsecond value onto its bucket.
func histIndex(us int64) int {
	if us < histSubs {
		return int(us)
	}
	exp := bits.Len64(uint64(us)) - 1 - histSubBits
	idx := exp<<histSubBits + int(us>>uint(exp))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// histBoundsUs returns the [lo, hi) microsecond range of bucket idx.
func histBoundsUs(idx int) (lo, hi int64) {
	if idx < histSubs {
		return int64(idx), int64(idx) + 1
	}
	exp := uint(idx>>histSubBits - 1)
	sub := int64(idx&(histSubs-1)) + histSubs
	return sub << exp, (sub + 1) << exp
}

// Observe records one latency. Negative durations clamp to zero.
func (h *LatencyHist) Observe(d core.Duration) {
	us := int64(d) / int64(core.Microsecond)
	if us < 0 {
		us = 0
	}
	h.counts[histIndex(us)]++
	h.sumUs += us
	if h.total == 0 || us < h.minUs {
		h.minUs = us
	}
	if us > h.maxUs {
		h.maxUs = us
	}
	h.total++
}

// Count reports the number of observations.
func (h *LatencyHist) Count() int64 { return h.total }

// MeanMs reports the mean observed latency in milliseconds.
func (h *LatencyHist) MeanMs() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sumUs) / float64(h.total) / 1000
}

// MinMs and MaxMs report the exact extremes in milliseconds (the extremes are
// tracked outside the buckets, so they carry no quantisation error).
func (h *LatencyHist) MinMs() float64 { return float64(h.minUs) / 1000 }

// MaxMs reports the largest observed latency in milliseconds.
func (h *LatencyHist) MaxMs() float64 { return float64(h.maxUs) / 1000 }

// Merge adds o's observations into h. Both histograms share the fixed global
// bucket layout, so the merge is an exact bucket-wise sum.
func (h *LatencyHist) Merge(o *LatencyHist) {
	if o == nil || o.total == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.minUs < h.minUs {
		h.minUs = o.minUs
	}
	if o.maxUs > h.maxUs {
		h.maxUs = o.maxUs
	}
	h.total += o.total
	h.sumUs += o.sumUs
}

// QuantileMs returns the q-th quantile (0..1) in milliseconds, interpolating
// linearly inside the bucket that holds the target rank. The extremes are
// exact: q=0 returns the minimum and q=1 the maximum observation.
func (h *LatencyHist) QuantileMs(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.MinMs()
	}
	if q >= 1 {
		return h.MaxMs()
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+c >= target {
			lo, hi := histBoundsUs(i)
			// Rank position within this bucket, in (0, 1].
			frac := float64(target-seen) / float64(c)
			us := float64(lo) + frac*float64(hi-lo)
			// The interpolated value cannot meaningfully exceed the exact
			// tracked maximum (the last bucket is a clamp bucket).
			if us > float64(h.maxUs) {
				us = float64(h.maxUs)
			}
			if us < float64(h.minUs) {
				us = float64(h.minUs)
			}
			return us / 1000
		}
		seen += c
	}
	return h.MaxMs()
}

// LatencyPercentiles is the fixed percentile summary the figures and the
// benchmark baseline record: a plain comparable struct so run results stay
// reflect.DeepEqual-friendly.
type LatencyPercentiles struct {
	Count int64
	P50   float64 // milliseconds
	P90   float64
	P99   float64
	P999  float64
	Mean  float64
	Max   float64
}

// Percentiles summarises the histogram into the standard percentile set.
func (h *LatencyHist) Percentiles() LatencyPercentiles {
	if h.total == 0 {
		return LatencyPercentiles{}
	}
	return LatencyPercentiles{
		Count: h.total,
		P50:   h.QuantileMs(0.50),
		P90:   h.QuantileMs(0.90),
		P99:   h.QuantileMs(0.99),
		P999:  h.QuantileMs(0.999),
		Mean:  h.MeanMs(),
		Max:   h.MaxMs(),
	}
}

// String renders the percentile summary as one aligned fragment.
func (p LatencyPercentiles) String() string {
	return fmt.Sprintf("n=%d p50=%.2fms p90=%.2fms p99=%.2fms p999=%.2fms max=%.2fms",
		p.Count, p.P50, p.P90, p.P99, p.P999, p.Max)
}
