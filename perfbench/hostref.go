package main

import (
	"slices"
	"time"
)

// Host-speed reference. The hosts this benchmark runs on are shared
// virtual machines whose speed drifts by a third over minutes as
// neighbours load the caches and memory system; the simulator, which is
// memory-bound, drifts with them. Every timing the end-to-end run
// reports is therefore scaled to a reference host speed: between
// operations the benchmark times a fixed reference kernel — a
// set-associative cache array fed a local/random line stream, a binary
// heap and a map, written here and sharing no code with the simulator —
// and multiplies each measured time by refNominal / (reference time
// around it). A change to the simulator moves the scaled figures exactly
// as it moves the raw ones; only the host's drift divides out. The raw
// figures are printed next to the scaled ones.

// refNominal is the reference kernel's time on a quiet host: scaled
// figures read as times on such a host.
const refNominal = 6 * time.Millisecond

// refWindow is how many reference samples around an operation give its
// scale factor (their median).
const refWindow = 9

const (
	refSets, refWays = 2048, 16
	refAccesses      = 60_000
	refFootprint     = 192 << 20
)

type refLine struct {
	tag, used uint64
	valid     bool
}

// hostRef owns the reference kernel's state, allocated once so that a
// sample allocates nothing and leaves no garbage for the simulator.
type hostRef struct {
	lines   []refLine
	heap    []uint64
	touched map[uint64]uint64
	sink    uint64
	samples []time.Duration
}

func newHostRef() *hostRef {
	return &hostRef{
		lines:   make([]refLine, refSets*refWays),
		heap:    make([]uint64, 0, 64),
		touched: make(map[uint64]uint64, 4096),
	}
}

// sample times the reference kernel once and records the time.
func (h *hostRef) sample() time.Duration {
	t0 := time.Now()
	clear(h.lines)
	h.heap = h.heap[:0]
	clear(h.touched)
	x := uint64(88172645463325252)
	var cur, clock uint64
	for i := 0; i < refAccesses; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x%100 < 85 {
			cur += 64
		} else {
			cur = (x >> 8) % refFootprint &^ 63
		}
		line := cur / 64
		set := h.lines[line%refSets*refWays:][:refWays]
		clock++
		victim, hit := 0, false
		for j := range set {
			if set[j].valid && set[j].tag == line {
				set[j].used, hit = clock, true
				break
			}
			if set[j].used < set[victim].used {
				victim = j
			}
		}
		if hit {
			continue
		}
		set[victim] = refLine{tag: line, used: clock, valid: true}
		h.touched[line&4095] += clock
		h.push(clock + x%64)
		if len(h.heap) > 32 {
			h.sink += h.pop()
		}
	}
	d := time.Since(t0)
	h.samples = append(h.samples, d)
	return d
}

func (h *hostRef) push(v uint64) {
	h.heap = append(h.heap, v)
	for i := len(h.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if h.heap[p] <= h.heap[i] {
			break
		}
		h.heap[p], h.heap[i] = h.heap[i], h.heap[p]
		i = p
	}
}

func (h *hostRef) pop() uint64 {
	top := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.heap = h.heap[:last]
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < last && h.heap[l] < h.heap[small] {
			small = l
		}
		if l+1 < last && h.heap[l+1] < h.heap[small] {
			small = l + 1
		}
		if small == i {
			return top
		}
		h.heap[i], h.heap[small] = h.heap[small], h.heap[i]
		i = small
	}
}

// warm runs the kernel a few times, so that first-touch page faults are
// not taken for host slowness, and forgets those samples.
func (h *hostRef) warm() {
	for i := 0; i < 3; i++ {
		h.sample()
	}
	h.samples = h.samples[:0]
}

// scaleAt returns the factor for the operation that sample i followed:
// refNominal over the median of the refWindow samples around it.
func (h *hostRef) scaleAt(i int) float64 {
	lo := max(0, i-refWindow/2)
	hi := min(len(h.samples), lo+refWindow)
	return h.scaleOver(max(0, hi-refWindow), hi)
}

// scaleOver returns refNominal over the median of samples [lo, hi).
func (h *hostRef) scaleOver(lo, hi int) float64 {
	w := slices.Clone(h.samples[lo:hi])
	slices.Sort(w)
	return float64(refNominal) / float64(w[len(w)/2])
}

// scaled returns d at the reference host speed.
func scaled(d time.Duration, factor float64) time.Duration {
	return time.Duration(float64(d) * factor)
}
