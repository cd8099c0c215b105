package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Count != 8 || !almost(s.Mean, 5) || !almost(s.StdDev, 2) || s.Min != 2 || s.Max != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.Mean != 0 || empty.StdDev != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Median(samples); !almost(got, 5.5) {
		t.Fatalf("median = %v", got)
	}
	if got := Percentile(samples, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(samples, 100); got != 10 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Percentile(samples, 25); !almost(got, 3.25) {
		t.Fatalf("p25 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	if got := Percentile([]float64{42}, 75); got != 42 {
		t.Fatalf("single-sample percentile = %v", got)
	}
	// Percentile must not mutate its input.
	unsorted := []float64{9, 1, 5}
	Percentile(unsorted, 50)
	if unsorted[0] != 9 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestRateSampler(t *testing.T) {
	r := NewRateSampler(core.Second)
	r.Start(0)
	// 10 completions in the first second, 5 in the second, none in the third.
	for i := 0; i < 10; i++ {
		r.Record(core.Time(i) * core.Time(100*core.Millisecond))
	}
	for i := 0; i < 5; i++ {
		r.Record(core.Time(core.Second) + core.Time(i)*core.Time(100*core.Millisecond))
	}
	samples := r.Finish(core.Time(3 * core.Second))
	if len(samples) != 3 {
		t.Fatalf("samples = %v", samples)
	}
	if !almost(samples[0], 10) || !almost(samples[1], 5) || !almost(samples[2], 0) {
		t.Fatalf("samples = %v", samples)
	}
}

func TestRateSamplerAutoStartAndDefaults(t *testing.T) {
	r := NewRateSampler(0) // defaults to 5 s
	r.Record(core.Time(core.Second))
	samples := r.Finish(core.Time(6 * core.Second))
	if len(samples) != 1 || !almost(samples[0], 0.2) {
		t.Fatalf("samples = %v", samples)
	}
	if len(r.Samples()) != 1 {
		t.Fatalf("Samples = %v", r.Samples())
	}
	// Finishing an unstarted sampler yields nothing.
	if got := NewRateSampler(core.Second).Finish(core.Time(core.Second)); got != nil {
		t.Fatalf("unstarted Finish = %v", got)
	}
}

func TestRateSamplerPartialTail(t *testing.T) {
	r := NewRateSampler(core.Second)
	r.Start(0)
	r.Record(core.Time(2300 * core.Millisecond)) // falls in the third interval
	samples := r.Finish(core.Time(2900 * core.Millisecond))
	// Two full empty intervals plus a 0.9 s tail holding one completion.
	if len(samples) != 3 {
		t.Fatalf("samples = %v", samples)
	}
	if !almost(samples[2], 1/0.9) {
		t.Fatalf("tail sample = %v", samples[2])
	}
	// A very short tail is discarded.
	r2 := NewRateSampler(core.Second)
	r2.Start(0)
	r2.Record(core.Time(1100 * core.Millisecond))
	if samples := r2.Finish(core.Time(1200 * core.Millisecond)); len(samples) != 1 {
		t.Fatalf("short tail not discarded: %v", samples)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Label: "devpoll", XLabel: "request rate", YLabel: "reply rate"}
	s.Append(500, 499)
	s.Append(600, 597)
	s.Append(700, 650)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if y, ok := s.YAt(600); !ok || y != 597 {
		t.Fatalf("YAt = %v %v", y, ok)
	}
	if _, ok := s.YAt(9999); ok {
		t.Fatal("YAt of missing x succeeded")
	}
}

// Property: the summary's min/max bound the mean, and stddev is zero iff all
// samples are equal.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		allEqual := true
		for i, v := range raw {
			samples[i] = float64(v)
			if v != raw[0] {
				allEqual = false
			}
		}
		s := Summarize(samples)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if allEqual && s.StdDev > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Percentile is monotone in p, bounded by the sample range, and
// equal to PercentileSorted over a sorted copy.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		p1 := float64(a%101) - 0
		p2 := float64(b%101) - 0
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1 := Percentile(samples, p1)
		v2 := Percentile(samples, p2)
		sorted := append([]float64(nil), samples...)
		sort.Float64s(sorted)
		if PercentileSorted(sorted, p1) != v1 || PercentileSorted(sorted, p2) != v2 {
			return false
		}
		return v1 <= v2+1e-9 && v1 >= sorted[0]-1e-9 && v2 <= sorted[len(sorted)-1]+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
