// Command insitu runs one miniature in-situ job — real mini-MD feeding
// real analyses over the simulated cluster — under a chosen power policy
// and prints the run summary and per-synchronization log.
//
// Usage:
//
//	insitu [-policy seesaw] [-analyses msd,rdf] [-sim 2] [-ana 2]
//	       [-steps 100] [-j 1] [-w 1] [-cap 110] [-seed 1]
//	       [-topology space-shared|time-shared|in-transit]
//	       [-faults PLAN] [-classes MAP] [-csv]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// -topology picks the placement: space-shared (the default: separate
// partitions over the interconnect), time-shared (each analysis rank
// co-resident with a simulation rank as two half-node power domains;
// needs -sim == -ana, and -cap still describes the full physical node)
// or in-transit (frames pay a modeled staging hop on the producers'
// clock).
//
// -faults injects a deterministic fault plan (internal/fault grammar,
// e.g. "slow:1@5x2+20" or "kill:3@20"). A slow excursion degrades the
// node in place; a kill takes the whole job down through the runtime's
// poisoning path, as losing a rank does under real MPI.
//
// -classes assigns device classes to node id ranges (internal/machine
// grammar, e.g. "0-1:cpu,2-3:gpu"; presets cpu, gpu, lowpower). Unlisted
// nodes keep the default model; omit the flag for the classic
// homogeneous cluster.
//
// -cpuprofile and -memprofile write pprof profiles covering the job run,
// the intended workflow for hunting substrate hotspots at scale, e.g.
//
//	insitu -sim 2048 -ana 2048 -steps 4 -cpuprofile cpu.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"seesaw/internal/core"
	"seesaw/internal/fault"
	"seesaw/internal/insitu"
	"seesaw/internal/machine"
	"seesaw/internal/policy"
	"seesaw/internal/trace"
	"seesaw/internal/units"
)

func main() {
	policyName := flag.String("policy", "seesaw", "power policy: "+strings.Join(policy.Names(), ", "))
	analyses := flag.String("analyses", "msd", "comma-separated analyses (rdf,vacf,msd,msd1d,msd2d)")
	simRanks := flag.Int("sim", 2, "simulation ranks (one per node)")
	anaRanks := flag.Int("ana", 2, "analysis ranks (one per node)")
	steps := flag.Int("steps", 100, "Verlet steps")
	j := flag.Int("j", 1, "synchronize every j-th step")
	w := flag.Int("w", 1, "reallocate power every w synchronizations")
	capPer := flag.Float64("cap", 110, "per-node power budget (W)")
	seed := flag.Uint64("seed", 1, "job seed")
	faults := flag.String("faults", "", "fault plan, e.g. 'slow:1@5x2+20' or 'kill:3@20' (see internal/fault)")
	classes := flag.String("classes", "", "device-class map, e.g. '0-1:cpu,2-3:gpu' (presets: "+strings.Join(machine.PresetNames(), ", ")+")")
	topology := flag.String("topology", "", "placement: space-shared (default), time-shared (sim and analysis co-resident, needs -sim == -ana) or in-transit (frames pay a staging hop)")
	csv := flag.Bool("csv", false, "emit the per-synchronization log as CSV")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the job to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the job to this file")
	flag.Parse()

	plan, err := fault.Parse(*faults)
	if err != nil {
		log.Fatal(err)
	}
	classMap, err := machine.ParseClassMap(*classes)
	if err != nil {
		log.Fatal(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	nodes := *simRanks + *anaRanks
	cons := core.Constraints{
		Budget: units.Watts(*capPer) * units.Watts(nodes),
		MinCap: 98,
		MaxCap: 215,
	}
	pol, err := policy.New(*policyName, cons, *w)
	if err != nil {
		log.Fatal(err)
	}

	res, err := insitu.Run(context.Background(), insitu.Config{
		SimRanks:    *simRanks,
		AnaRanks:    *anaRanks,
		Steps:       *steps,
		SyncEvery:   *j,
		Analyses:    strings.Split(*analyses, ","),
		Policy:      pol,
		Constraints: cons,
		Seed:        *seed,
		Faults:      plan,
		Classes:     classMap,
		Topology:    *topology,
	})
	if err != nil {
		var ke *fault.KilledError
		if errors.As(err, &ke) {
			log.Fatalf("job aborted: %v (a dead rank takes the whole MPI job down; use slow: faults for survivable degradation)", ke)
		}
		log.Fatal(err)
	}

	if *csv {
		if err := res.SyncLog.WriteCSV(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("in-situ job: %d sim + %d analysis nodes, %d steps, j=%d, %s policy, %v budget\n\n",
		*simRanks, *anaRanks, *steps, *j, *policyName, cons.Budget)

	tbl := trace.NewTable("Summary", "metric", "value")
	tbl.AddRow("main loop time", res.MainLoopTime)
	tbl.AddRow("synchronizations", res.Syncs)
	tbl.AddRow("total energy (kJ)", float64(res.TotalEnergy)/1000)
	tbl.AddRow("mean slack from step 10", fmt.Sprintf("%.2f%%", res.SyncLog.MeanSlackFrom(10)*100))
	tbl.AddRow("allocator overhead (s)", res.OverheadTotal)
	tbl.AddRow("MD total energy (reduced units)", fmt.Sprintf("%.2f", res.FinalSimEnergy))
	if err := tbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	last := res.SyncLog.Records[res.SyncLog.Len()-1]
	fmt.Printf("final per-node caps: simulation %v, analysis %v\n", last.SimCap, last.AnaCap)
	for name, out := range res.AnalysisResults {
		fmt.Printf("analysis %-6s produced %d output values\n", name, len(out))
	}
}
