// Command t3dsim runs one workload in one mode on the simulated Cray T3D
// and prints the cycle count and machine metrics.
//
// Usage:
//
//	t3dsim -app TOMCATV -mode ccdp -pes 16 [-scale small|paper] [-races] [-verify]
//	       [-machine-profile t3d|cxl-pcc|pim] [-domain-size D]
//	       [-topology flat|torus|XxYxZ]
//	       [-hw-prefetch next-line|stride] [-dir-pointers i]
//	       [-dir-sparse-lines n] [-dir-sparse-ways w]
//	       [-fault-rate 0.01] [-fault-kinds drop,late,spike,evict,skew] [-fault-seed 1]
//	       [-cpuprofile cpu.out] [-memprofile mem.out]
//
// The mode list (including the hardware directory modes hwdir, hwdir-lp
// and hwdir-sparse) comes from the core mode registry; the -hw-* flags
// only matter under a hwdir mode.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/exec"
	"repro/internal/machine"
)

const tool = "t3dsim"

func main() {
	app := flag.String("app", "MXM", "workload: MXM, VPENTA, TOMCATV or SWIM")
	mode := flag.String("mode", "ccdp", driver.ModeUsage())
	scale := flag.String("scale", "small", "problem scale: small or paper")
	races := flag.Bool("races", false, "enable the epoch-model race detector (slow)")
	verify := flag.Bool("verify", false, "also run sequentially and compare results")
	mf := driver.RegisterMachine(flag.CommandLine, 8)
	hf := driver.RegisterHW(flag.CommandLine)
	ff := driver.RegisterFault(flag.CommandLine)
	pf := driver.RegisterProf(flag.CommandLine)
	flag.Parse()

	stopProf, err := pf.Start()
	if err != nil {
		driver.Fatal(tool, err)
	}
	defer stopProf()

	spec, err := driver.App(*app, *scale)
	if err != nil {
		driver.Fatal(tool, err)
	}
	m, err := driver.ParseMode(*mode)
	if err != nil {
		driver.Fatal(tool, err)
	}
	plan, err := ff.Plan()
	if err != nil {
		driver.Fatal(tool, err)
	}
	mp, err := mf.Params()
	if err != nil {
		driver.Fatal(tool, err)
	}
	hf.Apply(&mp)

	c, err := core.Compile(spec.Prog, m, mp)
	if err != nil {
		driver.Fatal(tool, err)
	}
	res, err := exec.Run(c, exec.Options{DetectRaces: *races, Fault: plan})
	if err != nil {
		driver.Fatal(tool, err)
	}
	fmt.Printf("%s %v on %d PEs: %d cycles\n", spec.Name, m, mp.NumPE, res.Cycles)
	if *races {
		fmt.Println("race detection: no two PEs of a parallel epoch touched the same shared word with at least one write; simulated cycle counts are unchanged")
	}
	if plan.Enabled() {
		fmt.Println(plan)
	}
	fmt.Println(res.Stats.String())
	if res.Net != nil {
		fmt.Println(res.Net.String())
	}

	// The coherence safety oracle: any consumed stale word is a hard
	// failure in the coherent modes (INCOHERENT mode exists to exhibit
	// exactly these violations, so there they are only reported).
	if res.Stats.OracleViolations > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, tool+":", v.Error())
		}
		if m != core.ModeIncoherent {
			driver.Fatal(tool, fmt.Errorf("%d coherence-oracle violations", res.Stats.OracleViolations))
		}
	}

	if *verify {
		cs, err := core.Compile(spec.Prog, core.ModeSeq, machine.MustProfileParams("t3d", 1))
		if err != nil {
			driver.Fatal(tool, err)
		}
		ref, err := exec.Run(cs, exec.Options{})
		if err != nil {
			driver.Fatal(tool, err)
		}
		for _, name := range spec.CheckArrays {
			a := ref.Mem.ArrayData(ref.Mem.ArrayNamed(name))
			b := res.Mem.ArrayData(res.Mem.ArrayNamed(name))
			for i := range a {
				if a[i] != b[i] {
					driver.Fatal(tool, fmt.Errorf("verification FAILED: %s[%d] = %v, sequential %v", name, i, b[i], a[i]))
				}
			}
		}
		fmt.Println("verification PASSED: results identical to sequential run")
	}
}
