package repro

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/daemon"
)

// flagRow matches a flag table row and captures the flag name from its
// first cell, e.g. "| `-chan-cap` | `256` | ... |".
var flagRow = regexp.MustCompile("^\\| `-([a-z][a-z-]*)` \\|")

// TestReadmeFlagTable verifies that the fivm-serve flag table under
// README's "### Flags" names exactly the flags fivm-serve registers —
// the shared daemon set plus -addr and -version — so a flag cannot be
// added or removed without the table following. CI runs it with the
// doc-link checker.
func TestReadmeFlagTable(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n### Flags\n")
	if !ok {
		t.Fatal(`README.md has no "### Flags" section`)
	}
	var documented []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if m := flagRow.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
		}
	}
	var o daemon.Options
	registered := []string{"addr", "version"}
	for name := range o.RegisterFlags(flag.NewFlagSet("", flag.ContinueOnError)) {
		registered = append(registered, name)
	}
	for _, name := range registered {
		if !slices.Contains(documented, name) {
			t.Errorf("README flag table omits -%s", name)
		}
	}
	for i, name := range documented {
		switch {
		case !slices.Contains(registered, name):
			t.Errorf("README flag table documents -%s, which fivm-serve does not register", name)
		case slices.Contains(documented[:i], name):
			t.Errorf("README flag table lists -%s twice", name)
		}
	}
}
