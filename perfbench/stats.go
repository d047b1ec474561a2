package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailMin is how many samples must lie beyond a reported tail
// percentile: the tail is the highest percentile that still has this
// many samples above it.
const tailMin = 10

// dist is a sorted sample of one timing, in nanoseconds.
type dist []float64

func newDist(ns []int64) dist {
	d := make(dist, len(ns))
	for i, v := range ns {
		d[i] = float64(v)
	}
	sort.Float64s(d)
	return d
}

// rank returns the nearest-rank q-quantile (0 < q <= 1).
func (d dist) rank(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(d))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// median is the middle sample (mean of the two middle ones for even n).
func (d dist) median() float64 {
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// tailPcts are the candidate tail percentiles, highest first.
var tailPcts = []float64{99.9, 99, 95, 90, 80, 75, 50}

// tail returns the highest candidate percentile that has at least
// tailMin samples beyond it, and its value. With too few samples for
// any candidate it falls back to the median.
func (d dist) tail() (pct, value float64) {
	for _, p := range tailPcts {
		beyond := len(d) - int(math.Ceil(p*float64(len(d))/100-1e-9))
		if beyond >= tailMin {
			return p, d.rank(p / 100)
		}
	}
	return 50, d.median()
}

func ms(ns float64) float64 { return ns / 1e6 }

func medianDur(ds []time.Duration) time.Duration {
	ns := make([]int64, len(ds))
	for i, d := range ds {
		ns[i] = int64(d)
	}
	return time.Duration(newDist(ns).median())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) == 0 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			break
		}
		return kb / 1024
	}
	return math.NaN()
}

// stealTicks reads the host's cumulative CPU steal time (clock ticks,
// all CPUs) from /proc/stat; 0 where it is not available.
func stealTicks() uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}
