package relation

import (
	"fmt"
	"sort"
	"strings"
)

// VerifyIndexes exhaustively cross-checks every BUILT secondary index
// against the primary map: the postings must partition exactly the live
// entries grouped by their projected key, the O(1)-removal position
// table must mirror the postings, and no empty bucket may linger. It is
// a test/debug facility (O(entries × indexes)): the equivalence suites
// call it after maintenance to prove the indexes stayed consistent.
// Unbuilt indexes are skipped (they have no state to check).
func (m *Map[V]) VerifyIndexes() error {
	for _, ix := range m.indexes {
		if !ix.built {
			continue
		}
		if len(ix.pos) != len(m.data) {
			return fmt.Errorf("relation: index %v position table has %d entries, map has %d", ix.proj, len(ix.pos), len(m.data))
		}
		// Every live entry must sit in exactly the bucket of its
		// projected key, at the slot the position table claims.
		var kbuf []byte
		total := 0
		for pk, e := range m.data {
			kbuf = e.tuple.AppendEncodeProject(kbuf[:0], ix.proj)
			p, ok := ix.data[string(kbuf)]
			if !ok {
				return fmt.Errorf("relation: index %v missing bucket for live tuple %v", ix.proj, e.tuple)
			}
			s, ok := ix.pos[e]
			if !ok {
				return fmt.Errorf("relation: index %v missing position for live tuple %v (key %q)", ix.proj, e.tuple, pk)
			}
			if s.p != p || s.i < 0 || s.i >= len(p.entries) || p.entries[s.i] != e {
				return fmt.Errorf("relation: index %v position for tuple %v does not point back at its posting", ix.proj, e.tuple)
			}
			total++
		}
		// The buckets in turn must hold nothing beyond the live entries:
		// with the per-entry slots verified, equal counts and no empty
		// buckets pin the postings to exactly the live set.
		n := 0
		for k, p := range ix.data {
			if len(p.entries) == 0 {
				return fmt.Errorf("relation: index %v retains empty bucket %q", ix.proj, k)
			}
			n += len(p.entries)
		}
		if n != total {
			return fmt.Errorf("relation: index %v postings hold %d entries, map has %d", ix.proj, n, total)
		}
	}
	return nil
}

// IndexDumps renders every BUILT index deterministically — one string
// per index, keyed by its projection — so tests can assert that two
// independently maintained maps carry bit-identical index postings.
// Buckets are sorted by projected key and bucket contents by tuple
// encoding, removing the (irrelevant) insertion-order nondeterminism of
// the postings lists. Unbuilt indexes are omitted: laziness makes the
// built SET depend on which probes ran, so callers compare dumps for
// the projections present on both sides (and rely on VerifyIndexes to
// tie every built index to the primary contents).
func (m *Map[V]) IndexDumps() map[string]string {
	out := make(map[string]string)
	for _, ix := range m.indexes {
		if !ix.built {
			continue
		}
		keys := make([]string, 0, len(ix.data))
		for k := range ix.data {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			p := ix.data[k]
			lines := make([]string, 0, len(p.entries))
			for _, e := range p.entries {
				lines = append(lines, fmt.Sprintf("%v -> %v", e.tuple, e.payload))
			}
			sort.Strings(lines)
			fmt.Fprintf(&b, "%q: %s\n", k, strings.Join(lines, "; "))
		}
		out[fmt.Sprintf("%v", ix.proj)] = b.String()
	}
	return out
}
