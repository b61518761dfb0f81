package main

import (
	"net/http/httptest"
	"testing"

	"repro/internal/sweepd"
)

// The -server client mode must print byte-for-byte what the in-process
// path prints — details blocks, tables and CSV alike — because the server
// transports harness results losslessly and the rendering code is shared.
func TestServedStdoutByteIdenticalToInProcess(t *testing.T) {
	srv := sweepd.NewServer(sweepd.Options{})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	for _, mode := range []struct {
		name  string
		flags []string
	}{
		{"csv", []string{"-csv"}},
		{"tables", []string{"-table", "all"}},
		{"details", []string{"-details"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			args := append([]string{"-apps", "MXM,VPENTA", "-scale", "small", "-pes", "1,2,4", "-jobs", "1"}, mode.flags...)
			local, err := runCLI(t, args...)
			if err != nil {
				t.Fatal(err)
			}
			served, err := runCLI(t, append(args, "-server", hs.URL)...)
			if err != nil {
				t.Fatal(err)
			}
			if local != served {
				t.Errorf("served stdout differs from in-process:\n--- local ---\n%s--- served ---\n%s", local, served)
			}
		})
	}
}
