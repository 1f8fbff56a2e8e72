package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64 // 0 means the call must refuse
	}{
		{999, 0.99, 0},
		{1000, 0.99, 990},
		{1500, 0.99, 1485},
		{99, 0.90, 0},
		{100, 0.90, 90},
		{19, 0.50, 0},
		{20, 0.50, 10},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("n=%d p=%v: got %v, want a refusal", c.n, c.p, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("n=%d p=%v: got %v, %v; want %v", c.n, c.p, got, err, c.want)
		}
	}
	if _, err := percentile(seq(10), 1); err == nil {
		t.Error("p=1 accepted")
	}
}

func TestTailRelaxFallsBackToMax(t *testing.T) {
	if _, err := tail(seq(50), 0.99, false); err == nil {
		t.Fatal("strict tail accepted 50 samples for a p99")
	}
	got, err := tail(seq(50), 0.99, true)
	if err != nil || got != 50 {
		t.Fatalf("relaxed tail = %v, %v; want the maximum 50", got, err)
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v", m)
	}
}
