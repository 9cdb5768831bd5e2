package main

import (
	"path/filepath"
	"strings"
	"testing"

	"pos"
)

// cmdRun rejects flag combinations it cannot honour before it builds a
// topology or touches a results root.
func TestRunValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad flavor", []string{"-flavor", "kvm"}, `unknown flavor "kvm"`},
		{"negative chain", []string{"-chain", "-1"}, "-chain must be >= 0"},
		{"clusters without chain", []string{"-clusters", "2"}, "-clusters/-scalar require -chain"},
		{"scalar without chain", []string{"-scalar"}, "-clusters/-scalar require -chain"},
		{"chain with parallel", []string{"-chain", "4", "-parallel", "2"}, "-chain is incompatible with -parallel"},
		{"epoch with parallel", []string{"-epoch", "2021-12-07T00:00:00Z", "-parallel", "2"}, "-epoch applies to single-testbed runs only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := cmdRun(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("cmdRun(%q) = %v, want error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// A pinned-clock chain run on the batched engine and the same run with
// -scalar publish byte-identical experiment trees, as posctl diff reports.
func TestRunChainScalarDiffIdentical(t *testing.T) {
	// -epoch switches telemetry off for the process; restore it for the
	// tests that follow.
	t.Cleanup(func() { pos.SetTelemetryEnabled(true) })
	run := func(extra ...string) string {
		root := t.TempDir()
		args := append([]string{"-flavor", "vpos", "-chain", "4", "-clusters", "2",
			"-epoch", "2021-12-07T00:00:00Z", "-results", root}, extra...)
		if err := cmdRun(args); err != nil {
			t.Fatalf("cmdRun(%q): %v", args, err)
		}
		dirs, err := filepath.Glob(filepath.Join(root, "user", "router-chain-vpos", "*"))
		if err != nil || len(dirs) != 1 {
			t.Fatalf("experiment dirs under %s = %v, %v; want exactly one", root, dirs, err)
		}
		return dirs[0]
	}
	batched := run()
	scalar := run("-scalar")
	if err := cmdDiff([]string{"-a", batched, "-b", scalar}); err != nil {
		t.Fatal(err)
	}
}
