package view

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
	"repro/internal/vo"
)

// The snapshot reader under fuzzing. The tree is R(A,B) ⋈ S(A,B,C)
// over the covar engine's ranged ring, lifts B and C: the greedy order
// is A → B → C, so R (anchored at B beside S's subtree) keeps its tuples
// and S keeps only its anchor view at C — a stream carries both forms.
var mixedRels = []vo.Rel{
	{Name: "R", Schema: value.NewSchema("A", "B")},
	{Name: "S", Schema: value.NewSchema("A", "B", "C")},
}

// rangeCodec is the ranged codec with the placement checks the covar
// engine's codec makes: a source payload is a scalar, and an anchor
// view's (ForAnchor) covers its anchor subtree's lift range.
type rangeCodec struct {
	ring.RangedCovarCodec
	anchors map[string][2]int
	want    [2]int // start, n
}

func (c rangeCodec) ForAnchor(rel string) ring.Codec[*ring.RangedCovar] {
	c.want = c.anchors[rel]
	return c
}

func (c rangeCodec) Decode(r io.Reader) (*ring.RangedCovar, error) {
	p, err := c.RangedCovarCodec.Decode(r)
	if err == nil && p != nil && (p.Start != c.want[0] || p.N != c.want[1]) {
		return nil, fmt.Errorf("payload covers [%d,%d), want [%d,%d)", p.Start, p.Start+p.N, c.want[0], c.want[0]+c.want[1])
	}
	return p, err
}

// mixedTree builds the fuzzed tree, loaded with the tuples of seed, and
// its codec.
func mixedTree(t testing.TB, seed int) (*Tree[*ring.RangedCovar], rangeCodec) {
	ord, lifts, perm := PostOrderLifts(t, mixedRels, "B", "C")
	tr := mustTree(t, Spec[*ring.RangedCovar]{Ring: ring.RangedCovarRing{}, Order: ord, Relations: mixedRels, Lifts: lifts})
	data := map[string][]value.Tuple{}
	for i := 0; i < 6; i++ {
		data["R"] = append(data["R"], value.T(i%3, (i+seed)%4))
		data["S"] = append(data["S"], value.T(i%3, (i*seed)%4, i+seed))
	}
	if err := tr.Init(data); err != nil {
		t.Fatal(err)
	}
	// S is anchored at C, a leaf: its anchor view covers C's lift index.
	return tr, rangeCodec{RangedCovarCodec: ring.RangedCovarCodec{Degree: 2}, anchors: map[string][2]int{"S": {perm[1], 1}}}
}

// snapRel is one relation of a hand-built snapshot stream.
type snapRel struct {
	name string
	form byte
	m    *relation.Map[*ring.RangedCovar]
}

// snapStream writes a snapshot stream holding rels in order — what
// WriteSnapshot writes when each relation is in its tree's form.
func snapStream(codec ring.Codec[*ring.RangedCovar], rels ...snapRel) []byte {
	var b bytes.Buffer
	w := bufio.NewWriter(&b)
	writeHeader(w, snapshotMagic, snapshotVersion, codecTag(codec))
	writeUvarint(w, uint64(len(rels)))
	for _, r := range rels {
		writeString(w, r.name)
		w.WriteByte(r.form)
		if err := writeRelation(w, codec, r.m); err != nil {
			panic(err)
		}
	}
	w.Flush()
	return b.Bytes()
}

// judgeSnapshot is the fuzz oracle: it walks a stream with plain
// decoders and names a version other than this build's, or the first
// relation body that cannot belong in tr — a form other than the one
// tr keeps the relation in, a schema other than that form's, a payload
// range other than where it loads — or returns "" when it finds none
// (or the bytes stop parsing first).
func judgeSnapshot(data []byte, tr *Tree[*ring.RangedCovar], anchors map[string][2]int) string {
	r := bufio.NewReader(bytes.NewReader(data))
	head := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(r, head); err != nil || string(head[:len(snapshotMagic)]) != snapshotMagic {
		return ""
	}
	if head[len(snapshotMagic)] != snapshotVersion {
		return "another version"
	}
	if _, err := readString(r); err != nil {
		return ""
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return ""
	}
	for i := uint64(0); i < n; i++ {
		name, err := readString(r)
		src := tr.sources[name]
		if err != nil || src == nil {
			return ""
		}
		schema, want, view := src.schema, [2]int{}, src.data == nil
		form, err := r.ReadByte()
		if err != nil {
			return ""
		}
		if (form == formAnchorView) != view || form > formAnchorView {
			return "a wrong form"
		}
		if view {
			schema, want = src.anchor.keys, anchors[name]
		}
		nAttrs, err := binary.ReadUvarint(r)
		if err != nil {
			return ""
		}
		if nAttrs != uint64(schema.Len()) {
			return "a wrong schema"
		}
		attrs := make([]string, nAttrs)
		for j := range attrs {
			if attrs[j], err = readString(r); err != nil {
				return ""
			}
		}
		if !slices.Equal(attrs, schema.Attrs()) {
			return "a wrong schema"
		}
		nTuples, err := binary.ReadUvarint(r)
		if err != nil {
			return ""
		}
		for j := uint64(0); j < nTuples; j++ {
			if _, err := readString(r); err != nil {
				return ""
			}
			p, err := (ring.RangedCovarCodec{Degree: 2}).Decode(r)
			if err != nil {
				return ""
			}
			if p != nil && (p.Start != want[0] || p.N != want[1]) {
				return "a wrong payload range"
			}
		}
	}
	return ""
}

// snapshotSeeds returns a stream of mixedTree(1), hand-built and as
// WriteSnapshot wrote it, and the streams ReadSnapshot must refuse: the
// version before and after this build's, a wrong form byte, a wrong
// anchor view schema, an anchor view payload of the wrong range, and
// R's tuples under a repeated attribute.
func snapshotSeeds(t testing.TB) map[string][]byte {
	src, codec := mixedTree(t, 1)
	var written bytes.Buffer
	if err := src.WriteSnapshot(&written, codec); err != nil {
		t.Fatal(err)
	}
	r := src.sources["R"].data
	sView := src.sources["S"].anchor.view
	sTuples := relation.New[*ring.RangedCovar](mixedRels[1].Schema) // mixedTree(1)'s
	for i := 0; i < 6; i++ {
		sTuples.Merge(ring.RangedCovarRing{}, value.T(i%3, i%4, i+1), ring.RangedCovarRing{}.One())
	}
	shifted := relation.New[*ring.RangedCovar](sView.Schema())
	sView.Each(func(tp value.Tuple, _ *ring.RangedCovar) {
		shifted.Set(tp, ring.RangedCovarRing{}.Lift(1-codec.anchors["S"][0])(value.Int(2)))
	})
	built := snapStream(codec, snapRel{"R", formTuples, r}, snapRel{"S", formAnchorView, sView})
	version := func(v byte) []byte {
		b := slices.Clone(built)
		b[len(snapshotMagic)] = v
		return b
	}
	return map[string][]byte{
		"built":               built,
		"written":             written.Bytes(),
		"wrong older version": version(snapshotVersion - 1),
		"wrong newer version": version(snapshotVersion + 1),
		"wrong form":          snapStream(codec, snapRel{"R", formAnchorView, r}, snapRel{"S", formAnchorView, sView}),
		"wrong view schema":   snapStream(codec, snapRel{"R", formTuples, r}, snapRel{"S", formAnchorView, sTuples}),
		"wrong range":         snapStream(codec, snapRel{"R", formTuples, r}, snapRel{"S", formAnchorView, shifted}),
		// R's attributes A, B renamed A, A: once a panic in the schema
		// check, now a schema mismatch.
		"wrong repeated attribute": bytes.Replace(built, []byte("\x01R\x00\x02\x01A\x01B"), []byte("\x01R\x00\x02\x01A\x01A"), 1),
	}
}

// TestReadSnapshotForms: the seeds are judged as intended — each
// well-formed stream loads into a tree that already holds another
// database, landing on the state the same database reached by Init; each
// wrong stream is refused and leaves the tree as it was.
func TestReadSnapshotForms(t *testing.T) {
	seeds := snapshotSeeds(t)
	want, _ := mixedTree(t, 1)
	for name, data := range seeds {
		tr, codec := mixedTree(t, 2)
		before := treeState(tr)
		verdict := judgeSnapshot(data, tr, codec.anchors)
		err := tr.ReadSnapshot(bytes.NewReader(data), codec)
		if wrong := strings.HasPrefix(name, "wrong"); wrong != (err != nil) || wrong != (verdict != "") {
			t.Errorf("%s: ReadSnapshot err = %v, oracle verdict %q", name, err, verdict)
		}
		if err != nil {
			if treeState(tr) != before {
				t.Errorf("%s: a refused stream changed the tree", name)
			}
			continue
		}
		if got := treeState(tr); got != treeState(want) {
			t.Errorf("%s: loaded\n%s\nwant\n%s", name, got, treeState(want))
		}
	}
}

// FuzzReadSnapshot: no stream makes ReadSnapshot panic; a stream with a
// wrong form byte, view schema or payload range (judgeSnapshot) is
// refused; a refused stream leaves the tree unchanged; and an accepted
// one leaves a tree whose indexes are consistent, that keeps
// maintaining, and whose own snapshot reads back.
func FuzzReadSnapshot(f *testing.F) {
	for _, data := range snapshotSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, codec := mixedTree(t, 2)
		before := treeState(tr)
		verdict := judgeSnapshot(data, tr, codec.anchors)
		if err := tr.ReadSnapshot(bytes.NewReader(data), codec); err != nil {
			if treeState(tr) != before {
				t.Fatalf("refused stream (%v) changed the tree", err)
			}
			return
		}
		if verdict != "" {
			t.Fatalf("a stream with %s was accepted", verdict)
		}
		verifyTreeIndexes(t, tr, "accepted stream")
		if err := tr.ApplyUpdates([]Update{{Rel: "R", Tuple: value.T(1, 2), Mult: 1}, {Rel: "S", Tuple: value.T(1, 2, 3), Mult: 1}}); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := tr.WriteSnapshot(&again, codec); err != nil {
			t.Fatal(err)
		}
		fresh, _ := mixedTree(t, 3)
		if err := fresh.ReadSnapshot(&again, codec); err != nil {
			t.Fatalf("the snapshot of an accepted stream does not read back: %v", err)
		}
	})
}
