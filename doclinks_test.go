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

// repoPath matches a backticked repository path such as
// `internal/view/tree.go:42`; a :line suffix is captured apart.
var repoPath = regexp.MustCompile("`((?:cmd|internal|fivm|docs|bench|examples)/[^`\\s:]*)(?::[^`\\s]*)?`")

// fencedBlock matches a fenced code block, whose text is never a link
// (recorded program output such as M3 code contains "[...](x)").
var fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")

// TestDocRelativeLinks verifies that every relative link and every
// backticked repository path (outside fenced blocks) in README.md,
// docs/*.md and the .claude/skills notes points at a file or directory
// that exists, so the documentation cannot silently rot as files move.
// CI runs this as the doc-link checker.
func TestDocRelativeLinks(t *testing.T) {
	files := []string{"README.md"}
	for _, pattern := range []string{"docs/*.md", ".claude/skills/*/SKILL.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) < 2 {
		t.Fatalf("expected README.md plus docs/*.md, found %v", files)
	}
	checked, paths := 0, 0
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
		// Repository paths are relative to the root, wherever they are
		// written; a glob such as docs/*.md must match something.
		for _, m := range repoPath.FindAllStringSubmatch(prose, -1) {
			if matches, err := filepath.Glob(filepath.FromSlash(m[1])); err != nil || len(matches) == 0 {
				t.Errorf("%s: backticked path %q names nothing in the repository", f, m[0])
			}
			paths++
		}
	}
	if checked == 0 || paths == 0 {
		t.Fatalf("%d relative links and %d backticked paths found; the checker is miswired", checked, paths)
	}
}
