package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// cpuTimes are the machine's CPU time counters, in clock ticks summed over
// CPUs, as the first line of /proc/stat gives them.
type cpuTimes struct{ total, steal uint64 }

// readCPU returns the counters, or zeros where /proc/stat is not there.
func readCPU() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuTimes{}
	}
	return parseCPU(sc.Text())
}

// parseCPU reads "cpu user nice system idle iowait irq softirq steal ...";
// the guest fields that follow steal are already counted in user.
func parseCPU(line string) cpuTimes {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stolen is the share of CPU time between a and b that the hypervisor gave
// to other guests.
func stolen(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}
