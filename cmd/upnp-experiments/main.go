// Command upnp-experiments regenerates every table and figure of the
// paper's evaluation (Section 6) from the simulated µPnP system. The full
// report (-exp all, the default) is the committed EXPERIMENTS.md:
//
//	go run ./cmd/upnp-experiments > EXPERIMENTS.md
//
// Usage:
//
//	upnp-experiments [-exp waveforms|fig12|table2|table3|table4|endtoend|ablation|all] [-runs N]
package main

import (
	"flag"
	"fmt"
	"os"

	"micropnp/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: waveforms, fig12, table2, table3, table4, endtoend, ablation, all")
	runs := flag.Int("runs", experiments.DefaultRuns, "repetitions for timing experiments (Table 4)")
	flag.Parse()

	if *exp == "all" {
		fmt.Print(experiments.All(*runs))
		return
	}
	for _, s := range experiments.Sections {
		if s.Name == *exp {
			fmt.Println(s.Text(experiments.NewReport(*runs)))
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
	flag.Usage()
	os.Exit(2)
}
