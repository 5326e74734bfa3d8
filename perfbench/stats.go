package main

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// samples is a list of measurements of one quantity.
type samples []float64

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rank returns the nearest-rank percentile p (0 < p <= 1) and how many
// samples lie strictly beyond that rank.
func (s samples) rank(p float64) (v float64, beyond int) {
	if len(s) == 0 {
		return math.NaN(), 0
	}
	x := append(samples(nil), s...)
	sort.Float64s(x)
	k := int(math.Ceil(p*float64(len(x)))) - 1
	k = max(0, min(k, len(x)-1))
	return x[k], len(x) - 1 - k
}

func (s samples) median() float64 { v, _ := s.rank(0.5); return v }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// tail returns percentile p only when at least minBeyond samples lie
// beyond it — a tail estimate resting on fewer samples says little.
func (s samples) tail(p float64, minBeyond int) (float64, int, error) {
	v, beyond := s.rank(p)
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g rests on %d samples beyond it (of %d), need %d", p*100, beyond, len(s), minBeyond)
	}
	return v, beyond, nil
}

// tally counts attempts and failures of one request class. Every request
// that does not end in a 2xx, including a 429 shed or a transport error,
// is a failure; latency is recorded for successes only.
type tally struct {
	attempted int
	failed    int
	latMs     samples
}

func (t *tally) record(ok bool, d time.Duration) {
	t.attempted++
	if !ok {
		t.failed++
		return
	}
	t.latMs = append(t.latMs, durMs(d))
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.latMs = append(t.latMs, o.latMs...)
}

// rateWindow is the window over which throughput is sampled. A run's
// throughput is the median of its windows' rates, so a few seconds of
// interference from outside the benchmark move it little.
const rateWindow = time.Second

// meter counts completed work and samples its rate once per window.
type meter struct {
	n     atomic.Int64
	rates samples
	done  chan struct{}
}

// startMeter samples until deadline; wait returns the rates of the
// windows that ended by then.
func startMeter(deadline time.Time) *meter {
	m := &meter{done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(rateWindow)
		defer tick.Stop()
		prev, prevT := m.n.Load(), time.Now()
		for now := range tick.C {
			if now.After(deadline) {
				return
			}
			n := m.n.Load()
			m.rates = append(m.rates, float64(n-prev)/now.Sub(prevT).Seconds())
			prev, prevT = n, now
		}
	}()
	return m
}

func (m *meter) wait() samples {
	<-m.done
	return m.rates
}
