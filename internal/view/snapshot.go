package view

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
)

// Snapshot format:
//
//	magic "FIVMSNAP" | version u8 | codec tag | relation count uvarint
//	per relation: name | form u8 | attr count | attrs... |
//	              tuple count | per tuple: encoded key | payload (ring codec)
//
// The codec tag is the Go type name of the payload codec; it makes a
// snapshot self-describing across engine kinds, so restoring e.g. a
// count-engine snapshot into a float engine fails fast instead of
// misparsing payload bytes.
//
// Each relation is persisted as the state the tree keeps of it. Form 0
// (formTuples) is its tuples: a relation that shares its anchor node
// keeps them. Form 1 (formAnchorView) is its anchor view, over the
// anchor's keys: a relation that is its anchor's only operand keeps no
// tuples, and that view is all of it any update reads. The other views
// are recomputed on restore: tuples enter at their anchor, an anchor
// view above it, through the one load path.
//
// A reader accepts only the version this build writes (snapshotVersion)
// and refuses any other by name, before it touches the tree.
//
// The per-relation body (attr count onward) is shared with the partial
// format: writeRelation / readRelation.

const (
	snapshotMagic   = "FIVMSNAP"
	snapshotVersion = 3

	formTuples     = 0
	formAnchorView = 1
)

// codecTag names the payload codec for the snapshot header. Codecs
// whose wire format depends on parameters (e.g. the ring degree) expose
// a Tag method so two configurations of the same codec type do not
// collide; the Go type name covers the rest.
func codecTag[V any](codec ring.Codec[V]) string {
	if t, ok := any(codec).(interface{ Tag() string }); ok {
		return t.Tag()
	}
	return fmt.Sprintf("%T", codec)
}

// WriteSnapshot persists the state the tree keeps of each input
// relation to w — its tuples, or its anchor view — using codec for
// payloads. The tree itself is unchanged.
func (t *Tree[V]) WriteSnapshot(w io.Writer, codec ring.Codec[V]) error {
	bw := bufio.NewWriter(w)
	writeHeader(bw, snapshotMagic, snapshotVersion, codecTag(codec))
	names := t.RelationNames()
	writeUvarint(bw, uint64(len(names)))
	for _, name := range names {
		writeString(bw, name)
		s, form := t.sources[name].stored()
		bw.WriteByte(form)
		if err := writeRelation(bw, codec, s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// stored returns the state the tree keeps of s and its snapshot form:
// its tuples, or its anchor view when it keeps none.
func (s *source[V]) stored() (*relation.Map[V], byte) {
	if s.data == nil {
		return s.anchor.view, formAnchorView
	}
	return s.data, formTuples
}

// ReadSnapshot restores the tree's input relations from r and loads
// them as one delta per relation against the emptied tree (see load).
// The snapshot's relations must match the tree's configuration (names,
// schemas, and the form the tree keeps each in); any
// previous contents are discarded, but only once the whole stream has
// decoded — a bad snapshot leaves the tree untouched. An anchor view is
// decoded by codec.ForAnchor(name) when the codec has that method, so a
// codec can check the payloads belong at that anchor.
func (t *Tree[V]) ReadSnapshot(r io.Reader, codec ring.Codec[V]) error {
	br := bufio.NewReader(r)
	if err := readHeader(br, snapshotMagic, snapshotVersion, codec, "snapshot"); err != nil {
		return err
	}
	nRels, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if nRels != uint64(len(t.sources)) {
		return fmt.Errorf("view: snapshot has %d relations, tree has %d", nRels, len(t.sources))
	}
	loaded := make(map[string]*relation.Map[V], nRels)
	views := map[string]bool{}
	for i := uint64(0); i < nRels; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		src, ok := t.sources[name]
		if !ok {
			return fmt.Errorf("view: snapshot relation %s not in tree", name)
		}
		if _, dup := loaded[name]; dup {
			return fmt.Errorf("view: snapshot relation %s appears twice", name)
		}
		m, form := src.stored()
		got, err := br.ReadByte()
		if err != nil {
			return err
		}
		if got != form {
			return fmt.Errorf("view: snapshot relation %s has form %d, this tree keeps it in form %d", name, got, form)
		}
		schema, c := src.schema, codec
		if form == formAnchorView {
			schema = m.Schema()
			if fa, ok := codec.(interface{ ForAnchor(string) ring.Codec[V] }); ok {
				c = fa.ForAnchor(name)
			}
		}
		if loaded[name], err = readRelation(br, t.ring, c, schema, "snapshot relation "+name); err != nil {
			return err
		}
		views[name] = form == formAnchorView
	}
	t.load(loaded, views)
	return nil
}

// writeHeader starts a snapshot or partial stream: magic | version u8 |
// codec tag.
func writeHeader(w *bufio.Writer, magic string, version byte, tag string) {
	w.WriteString(magic)
	w.WriteByte(version)
	writeString(w, tag)
}

// readHeader consumes a stream's header and checks it is the one
// writeHeader writes for codec: magic, version, and codec tag. A stream
// of any other version is refused by name; what names the format in
// errors.
func readHeader[V any](r *bufio.Reader, magic string, version byte, codec ring.Codec[V], what string) error {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return fmt.Errorf("view: reading %s header: %w", what, err)
	}
	if string(got) != magic {
		return fmt.Errorf("view: not a F-IVM %s (magic %q)", what, got)
	}
	ver, err := r.ReadByte()
	if err != nil {
		return fmt.Errorf("view: reading %s header: %w", what, err)
	}
	if ver != version {
		return fmt.Errorf("view: unsupported %s version %d", what, ver)
	}
	tag, err := readString(r)
	if err != nil {
		return fmt.Errorf("view: reading %s header: %w", what, err)
	}
	if want := codecTag(codec); tag != want {
		return fmt.Errorf("view: %s written with codec %s, this engine uses %s", what, tag, want)
	}
	return nil
}

// writeRelation writes one relation body:
//
//	attr count | attrs... | tuple count | per tuple: encoded key | payload
func writeRelation[V any](w *bufio.Writer, codec ring.Codec[V], m *relation.Map[V]) error {
	attrs := m.Schema().Attrs()
	writeUvarint(w, uint64(len(attrs)))
	for _, a := range attrs {
		writeString(w, a)
	}
	writeUvarint(w, uint64(m.Len()))
	var err error
	m.Each(func(tp value.Tuple, p V) {
		if err == nil {
			writeString(w, tp.Encode())
			err = codec.Encode(w, p)
		}
	})
	return err
}

// readRelation decodes one relation body, which must be over schema
// want; what names it in errors. A zero payload is dropped: relations
// never store one, and a crafted stream must not smuggle one in.
func readRelation[V any](r *bufio.Reader, rg ring.Ring[V], codec ring.Codec[V], want value.Schema, what string) (*relation.Map[V], error) {
	nAttrs, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if nAttrs != uint64(want.Len()) {
		return nil, fmt.Errorf("view: %s has %d attributes, want %v", what, nAttrs, want)
	}
	attrs := make([]string, nAttrs)
	for i := range attrs {
		if attrs[i], err = readString(r); err != nil {
			return nil, err
		}
	}
	if !slices.Equal(attrs, want.Attrs()) { // not NewSchema: a crafted stream may repeat an attribute
		return nil, fmt.Errorf("view: %s has schema %v, want %v", what, attrs, want)
	}
	nTuples, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	m := relation.New[V](want)
	for i := uint64(0); i < nTuples; i++ {
		key, err := readString(r)
		if err != nil {
			return nil, err
		}
		tp, err := value.DecodeTuple(key)
		if err != nil {
			return nil, fmt.Errorf("view: %s tuple: %w", what, err)
		}
		if len(tp) != want.Len() {
			// A desynced (corrupt) payload stream can still decode into a
			// valid-looking tuple of the wrong arity; error out rather
			// than panic in the relation layer.
			return nil, fmt.Errorf("view: %s tuple has %d attributes, schema has %d (corrupt stream?)", what, len(tp), want.Len())
		}
		p, err := codec.Decode(r)
		if err != nil {
			return nil, err
		}
		if !rg.IsZero(p) {
			m.Set(tp, p)
		}
	}
	return m, nil
}

// Writes to a bufio.Writer need no per-call check: its first error is
// sticky and Flush reports it.

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("view: string length %d exceeds limit", n)
	}
	if n > 1<<16 {
		// Grow with what the stream holds: a corrupt length must not
		// allocate its size up front.
		var b strings.Builder
		if _, err := io.CopyN(&b, r, int64(n)); err != nil {
			return "", err
		}
		return b.String(), nil
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
