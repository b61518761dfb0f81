package report_test

import (
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/noc"
	"repro/internal/report"
	"repro/internal/workloads"
)

// arenaGoldenCSV pins the coherence-arena output: the exact CSV that
// cmd/ccdpbench emitted for the four paper applications at small scale
// with `-arena -arena-pes 8 -topology torus` when the hardware directory
// modes landed. It is the machine-checkable form of the arena's claims:
// the software schemes (BASE, CCDP) book zero coherence messages and zero
// directory storage, while the three directory organizations show
// distinct, nonzero message and storage costs on the sharing workloads —
// the full map is precise but pays the widest bit-vectors, Dir_1_B
// overflows to broadcast (TOMCATV: 22113 invalidations sent against the
// full map's 3795), and the undersized sparse directory recalls live
// lines as its entries evict. Any engine or protocol change that shifts a
// single simulated cycle or message breaks this byte-for-byte.
const arenaGoldenCSV = `app,pes,mode,seq_cycles,cycles,speedup,coh_msgs,inv_sent,inv_recv,writebacks,broadcasts,dir_evictions,dir_bits,net_msgs,data_msgs,hwpref_issued,hwpref_useful
MXM,8,BASE,74656,117220,0.6369,0,0,0,0,0,0,0,7168,7168,0,0
MXM,8,CCDP,74656,20255,3.6858,0,0,0,0,0,0,0,224,224,0,0
MXM,8,HWDIR,74656,30269,2.4664,224,0,0,0,0,0,2280,2016,1792,0,0
MXM,8,HWDIR-LP,74656,30269,2.4664,224,0,0,0,0,0,1368,2016,1792,0,0
MXM,8,HWDIR-SPARSE,74656,30269,2.4664,224,0,0,0,0,0,18432,2016,1792,0,0
VPENTA,8,BASE,393984,76728,5.1348,0,0,0,0,0,0,0,0,0,0,0
VPENTA,8,CCDP,393984,50801,7.7554,0,0,0,0,0,0,0,0,0,0,0
VPENTA,8,HWDIR,393984,50051,7.8717,0,0,0,1864,0,0,18000,0,0,0,0
VPENTA,8,HWDIR-LP,393984,50051,7.8717,0,0,0,1864,0,0,10800,0,0,0,0
VPENTA,8,HWDIR-SPARSE,393984,50139,7.8578,0,3048,96,1872,0,3048,21504,0,0,0,0
TOMCATV,8,BASE,781807,1400538,0.5582,0,0,0,0,0,0,0,52456,52456,0,0
TOMCATV,8,CCDP,781807,550540,1.4201,0,0,0,0,0,0,0,27688,27688,0,0
TOMCATV,8,HWDIR,781807,495523,1.5777,16778,3795,2586,3728,0,0,19190,35926,19148,0,0
TOMCATV,8,HWDIR-LP,781807,629055,1.2428,50738,22113,2586,3728,3119,0,11514,69886,19148,0,0
TOMCATV,8,HWDIR-SPARSE,781807,510767,1.5307,20592,7974,5753,3828,0,4013,21504,41224,20632,0,0
SWIM,8,BASE,1073428,387642,2.7691,0,0,0,0,0,0,0,10494,10494,0,0
SWIM,8,CCDP,1073428,214627,5.0014,0,0,0,0,0,0,0,3254,3254,0,0
SWIM,8,HWDIR,1073428,215042,4.9917,3134,828,119,2834,0,0,38370,6520,3386,0,0
SWIM,8,HWDIR-LP,1073428,228448,4.6988,11302,4912,119,2834,684,0,23022,14688,3386,0,0
SWIM,8,HWDIR-SPARSE,1073428,208017,5.1603,3302,10123,7876,2744,0,9269,22528,6756,3454,0,0
`

// TestArenaGoldenCSV runs the coherence arena for the four small-scale
// applications on the 8-PE torus and asserts the rendered CSV is
// byte-identical to the golden capture above. RunArena itself verifies
// every mode's result arrays against the sequential golden and fails on
// any oracle violation, so a pass here also certifies every hardware
// organization coherent on all four workloads.
func TestArenaGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale arena in -short mode")
	}
	topo, err := noc.Parse("torus")
	if err != nil {
		t.Fatal(err)
	}
	var results []*harness.ArenaResult
	for _, s := range workloads.Small() {
		ar, err := harness.RunArena(s, harness.Config{Topology: topo}, 8, "")
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		results = append(results, ar)
	}
	got := report.ArenaCSV(results)
	if got == arenaGoldenCSV {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(arenaGoldenCSV, "\n")
	for i := range wantLines {
		if i >= len(gotLines) || gotLines[i] != wantLines[i] {
			g := "<missing>"
			if i < len(gotLines) {
				g = gotLines[i]
			}
			t.Fatalf("arena CSV diverges from the golden at line %d:\n got: %s\nwant: %s", i+1, g, wantLines[i])
		}
	}
	t.Fatalf("arena CSV has %d lines, golden has %d", len(gotLines), len(wantLines))
}

// arenaFlatGoldenCSV is `ccdpbench -arena -apps MXM -scale small -csv` on
// the default flat machine. With no interconnect modeled there are no
// network messages to count, so the net_msgs and data_msgs columns are
// left out, as the arena table leaves them out, instead of printing a
// data_msgs of 0 − coh_msgs.
const arenaFlatGoldenCSV = `app,pes,mode,seq_cycles,cycles,speedup,coh_msgs,inv_sent,inv_recv,writebacks,broadcasts,dir_evictions,dir_bits,hwpref_issued,hwpref_useful
MXM,8,BASE,74656,120640,0.6188,0,0,0,0,0,0,0,0,0
MXM,8,CCDP,74656,14826,5.0355,0,0,0,0,0,0,0,0,0
MXM,8,HWDIR,74656,29512,2.5297,224,0,0,0,0,0,2280,0,0
MXM,8,HWDIR-LP,74656,29512,2.5297,224,0,0,0,0,0,1368,0,0
MXM,8,HWDIR-SPARSE,74656,29512,2.5297,224,0,0,0,0,0,18432,0,0
`

func TestArenaFlatGoldenCSV(t *testing.T) {
	ar, err := harness.RunArena(workloads.Build("MXM", true), harness.Config{}, 8, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := report.ArenaCSV([]*harness.ArenaResult{ar}); got != arenaFlatGoldenCSV {
		t.Errorf("flat arena CSV:\n%s\nwant:\n%s", got, arenaFlatGoldenCSV)
	}
}
