package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// fencedBlock matches a fenced code block, whose text is never a link
// (recorded program output such as M3 code contains "[...](x)").
var fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")

// TestDocRelativeLinks verifies that every relative link in README.md
// and docs/*.md points at a file or directory that exists, so the
// architecture documentation cannot silently rot as files move. CI runs
// this as the doc-link checker.
func TestDocRelativeLinks(t *testing.T) {
	files := []string{"README.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, docs...)
	if len(files) < 2 {
		t.Fatalf("expected README.md plus docs/*.md, found %v", files)
	}
	checked := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prose := fencedBlock.ReplaceAllString(string(data), "")
		for _, m := range mdLink.FindAllStringSubmatch(prose, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			// Drop a #fragment; a bare fragment links within the file.
			if i := strings.Index(target, "#"); i >= 0 {
				target = target[:i]
				if target == "" {
					continue
				}
			}
			p := filepath.Join(filepath.Dir(f), filepath.FromSlash(target))
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s: broken relative link %q (resolved %s): %v", f, m[1], p, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links found; the checker is miswired")
	}
}
