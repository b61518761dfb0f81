package main

// The pinned outputs. A pass whose output differs from its pin counts
// every point, program or request it holds as failed. To re-pin after a
// change that is meant to alter simulated results, run the workload and
// copy the digest the failure message prints.

// pinnedCSV is the SHA-256 of report.CSV for each tables workload and for
// the served sweep's cold answer, by workload and input size.
var pinnedCSV = map[string]string{
	"flat/full":   "adfd31fbfc70000d84ac0bd53bddbbe706253b5a6ba3f90fba6cdb3687db0edd",
	"torus/full":  "22017168699b6f72c13c2a1ac3b66aaaac8c446c7e7b7ba0ae631ac25d0726b6",
	"served/full": "e1e2f6b67131d42bab22b8b60bfff49855b7e04f8747e9e73165e1b19c2f6d64",
	"flat/tiny":   "58f4a820a2b0b0cf2a617aa8d03681f405c422be122866323448fd6316fed1bb",
	"torus/tiny":  "9cec6a244df4ec015a3409a2790de36c88dda75dde90e1cb0472a75a756e5de8",
	"served/tiny": "58f4a820a2b0b0cf2a617aa8d03681f405c422be122866323448fd6316fed1bb",
}

func pinKey(cfg config, workload string) string {
	if cfg.tiny {
		return workload + "/tiny"
	}
	return workload + "/full"
}

// pinnedFuzzRuns is the number of configurations fuzz.DefaultMatrix runs
// each clean program through.
const pinnedFuzzRuns = 46
