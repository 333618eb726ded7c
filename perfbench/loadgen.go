package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// window is one open-loop measurement at a fixed offered rate.
type window struct {
	rate    float64
	dur     time.Duration
	n       int // requests scheduled
	done    int // answered and correct
	failed  int
	backlog int // still queued in the generator when the grace period ended

	lat, ttfb []time.Duration // due time -> last / first response byte
	idx       []int           // due index of each lat/ttfb sample
	lag       []time.Duration // generator lateness: dispatch - due
	shapeLat  map[string][]time.Duration
	start     time.Time
	lastDone  time.Time
	cpu       time.Duration // xqd user+sys CPU over the window
}

// openLoop offers reqs to xqd at rate for dur: request j is due at
// start + j/rate whether or not earlier ones were answered, and waits in
// the generator's queue for one of the conns. Latency runs from the due
// time, so a stall also charges the requests queued behind it. Requests
// still queued grace after the window are abandoned and counted as
// backlog.
func (b *bench) openLoop(p *xqdProc, conns []*conn, rate float64, dur, grace time.Duration) *window {
	n := int(rate * dur.Seconds())
	reqs := b.take(n)
	w := &window{rate: rate, dur: dur, n: n,
		lat: make([]time.Duration, 0, n), ttfb: make([]time.Duration, 0, n),
		lag: make([]time.Duration, 0, n), shapeLat: map[string][]time.Duration{}}
	jobs := make(chan int, n) // sized to the number of sends: dispatch never blocks
	cpu0, _ := p.cpuTime()
	w.start = time.Now().Add(2 * time.Millisecond)
	due := func(j int) time.Time { return w.start.Add(time.Duration(float64(j) / rate * float64(time.Second))) }
	cutoff := w.start.Add(dur + grace)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			var resp response
			for j := range jobs {
				if time.Now().After(cutoff) {
					mu.Lock()
					w.backlog++
					mu.Unlock()
					continue
				}
				_, err := b.send(c, reqs[j], &resp)
				d := due(j)
				mu.Lock()
				if err != nil {
					w.failed++
				} else {
					w.done++
					l := resp.last.Sub(d)
					w.lat = append(w.lat, l)
					w.ttfb = append(w.ttfb, resp.first.Sub(d))
					w.idx = append(w.idx, j)
					w.shapeLat[reqs[j].shape] = append(w.shapeLat[reqs[j].shape], l)
					if resp.last.After(w.lastDone) {
						w.lastDone = resp.last
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	// The dispatcher sleeps in nanosleep(2) on a thread of its own, raised
	// in priority where permitted: the Go timer wakes up to a millisecond
	// late, and a normal thread waits behind xqd's for a CPU, either of
	// which would add the generator's own lateness to every latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	raisePriority()
	for j := 0; j < n; j++ {
		d := due(j)
		sleepUntil(d)
		w.lag = append(w.lag, time.Since(d))
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	cpu1, _ := p.cpuTime()
	w.cpu = cpu1 - cpu0
	return w
}

// sliceSamples is the size of the slices, in consecutive due requests,
// that a window's percentiles are taken over; a window reports the median
// of its slices' percentiles, so one stall of a shared host moves one
// slice, not the result.
const sliceSamples = 200

// quantile is the median over slices of the q-quantile of xs (lat or ttfb)
// within each slice.
func (w *window) quantile(xs []time.Duration, q float64) float64 {
	by := map[int][]time.Duration{}
	for i, x := range xs {
		by[w.idx[i]/sliceSamples] = append(by[w.idx[i]/sliceSamples], x)
	}
	var per []float64
	for _, s := range by {
		per = append(per, ms(pct(s, q)))
	}
	return median(per)
}

// shapeMedian is the geometric mean, over the window's query shapes, of
// each shape's median latency, and the number of shapes. Every shape
// counts once whatever its share of the mix, so the figure does not jump
// between shapes when the p50 of the whole mix sits between two of them,
// and each shape's median spans the whole window. Extends are writes, too
// few per window for a median, and are left out.
func (w *window) shapeMedian() (float64, int) {
	sum, n := 0.0, 0
	for shape, lats := range w.shapeLat {
		if shape == "extend" {
			continue
		}
		sum += math.Log(ms(pct(lats, 0.5)))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(sum / float64(n)), n
}

// raisePriority gives the calling thread the highest nice priority, when
// the process may; a failure leaves the thread as it was.
func raisePriority() {
	syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), -20)
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) // EINTR (runtime signals) just loops
	}
}

// sustained reports whether xqd kept up with the offered rate: every
// request answered correctly, nothing left in the generator's queue, and
// p99 latency within limit.
func (w *window) sustained(limit time.Duration) bool {
	return w.failed == 0 && w.backlog == 0 && w.done == w.n && w.quantile(w.lat, 0.99) <= ms(limit)
}

// throughput is the completion rate over the window.
func (w *window) throughput() float64 {
	el := w.lastDone.Sub(w.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(w.done) / el
}
