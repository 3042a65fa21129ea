// Command perfbench is the repository's benchmark. It drives the real
// oracled and shardplan binaries over loopback sockets, runs cmd/apsp and
// cmd/mcb as a user would, checks every answer it can against an
// independent reference, and prints one JSON line of metrics.
//
//	perfbench -bin DIR -workload point-zipf -seed 1 -seconds 8 -trace 0
//
// DIR holds the oracled, shardplan, apsp and mcb binaries built from this
// repository; run.sh builds them and then runs this command. With -trace 1
// the same workload runs once more through the layers' Go APIs, timed from
// here, and the output carries per-layer metrics instead of end-to-end
// ones. README.md in this directory lists the workloads, the metrics and
// the layer each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see README.md)")
		seed    = flag.Uint64("seed", 1, "seed for the generated graphs and request streams")
		seconds = flag.Float64("seconds", 8, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end run")
		bin     = flag.String("bin", "", "directory holding the oracled, shardplan, apsp and mcb binaries")
		work    = flag.String("work", "", "directory for generated inputs and trace output")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench -bin DIR -work DIR -workload NAME -seed N -seconds S -trace 0|1 (%v)\n", err)
		os.Exit(2)
	}
	for _, b := range []string{"oracled", "shardplan", "apsp", "mcb"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: missing binary: %v\n", err)
			os.Exit(1)
		}
	}
	r := &runner{
		w:       w,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1,
		bin:     *bin,
		work:    *work,
		client:  newHTTPClient(),
		correct: true,
		metrics: make(map[string]metric),
	}
	res, err := r.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
