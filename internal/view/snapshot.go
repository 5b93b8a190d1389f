package view

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/relation"
	"repro/internal/ring"
	"repro/internal/value"
)

// Snapshot format:
//
//	magic "FIVMSNAP" | version u8 | codec tag (v2+) | relation count uvarint
//	per relation: name | attr count | attrs... | tuple count |
//	              per tuple: encoded key | payload (ring codec)
//
// The codec tag is the Go type name of the payload codec; it makes a
// snapshot self-describing across engine kinds, so restoring e.g. a
// count-engine snapshot into a float engine fails fast instead of
// misparsing payload bytes. Version-1 snapshots (no tag) still load.
//
// Only the input relations are persisted; views are recomputed on
// restore (they are pure functions of the sources), which keeps the
// snapshot small and immune to view-layout changes across versions.
//
// The per-relation body (attr count onward) is shared with the partial
// format: writeRelation / readRelation.

const (
	snapshotMagic   = "FIVMSNAP"
	snapshotVersion = 2
)

// codecTag names the payload codec for the snapshot header. Codecs
// whose wire format depends on parameters (e.g. the ring degree) expose
// a Tag method so two configurations of the same codec type do not
// collide; the Go type name covers the rest. A codec that still reads
// streams an earlier format wrote under another tag exposes
// ForTag(tag) (ring.Codec[V], bool), which readTag consults.
func codecTag[V any](codec ring.Codec[V]) string {
	if t, ok := any(codec).(interface{ Tag() string }); ok {
		return t.Tag()
	}
	return fmt.Sprintf("%T", codec)
}

// WriteSnapshot persists the tree's input relations to w using codec
// for payloads. The tree itself is unchanged.
func (t *Tree[V]) WriteSnapshot(w io.Writer, codec ring.Codec[V]) error {
	bw := bufio.NewWriter(w)
	writeHeader(bw, snapshotMagic, snapshotVersion, codecTag(codec))
	names := t.RelationNames()
	writeUvarint(bw, uint64(len(names)))
	for _, name := range names {
		writeString(bw, name)
		if err := writeRelation(bw, codec, t.sources[name].data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot restores the tree's input relations from r and loads
// them as one delta per relation against the emptied tree (see load).
// The snapshot's relations must match the tree's configuration (names
// and schemas); any previous contents are discarded, but only once the
// whole stream has decoded — a bad snapshot leaves the tree untouched.
func (t *Tree[V]) ReadSnapshot(r io.Reader, codec ring.Codec[V]) error {
	br := bufio.NewReader(r)
	ver, err := readHeader(br, snapshotMagic, "snapshot")
	if err != nil {
		return err
	}
	switch ver {
	case 1:
		// Pre-tag format: no codec identification; trust the caller.
	case snapshotVersion:
		if codec, err = readTag(br, codec, "snapshot"); err != nil {
			return err
		}
	default:
		return fmt.Errorf("view: unsupported snapshot version %d", ver)
	}
	nRels, err := binary.ReadUvarint(br)
	if err != nil {
		return err
	}
	if nRels != uint64(len(t.sources)) {
		return fmt.Errorf("view: snapshot has %d relations, tree has %d", nRels, len(t.sources))
	}
	loaded := make(map[string]*relation.Map[V], nRels)
	for i := uint64(0); i < nRels; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		src, ok := t.sources[name]
		if !ok {
			return fmt.Errorf("view: snapshot relation %s not in tree", name)
		}
		if loaded[name], err = readRelation(br, t.ring, codec, src.schema, "snapshot relation "+name); err != nil {
			return err
		}
	}
	t.load(loaded)
	return nil
}

// writeHeader starts a snapshot or partial stream: magic | version u8 |
// codec tag.
func writeHeader(w *bufio.Writer, magic string, version byte, tag string) {
	w.WriteString(magic)
	w.WriteByte(version)
	writeString(w, tag)
}

// readHeader consumes the magic and returns the version byte; what
// names the format in errors.
func readHeader(r *bufio.Reader, magic, what string) (byte, error) {
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(r, got); err != nil {
		return 0, fmt.Errorf("view: reading %s header: %w", what, err)
	}
	if string(got) != magic {
		return 0, fmt.Errorf("view: not a F-IVM %s (magic %q)", what, got)
	}
	return r.ReadByte()
}

// readTag consumes the codec tag and returns the codec that decodes the
// stream: codec itself, or — for a tag of an earlier wire format —
// the one codec's ForTag names. A stream any other codec wrote is
// rejected.
func readTag[V any](r *bufio.Reader, codec ring.Codec[V], what string) (ring.Codec[V], error) {
	tag, err := readString(r)
	if err != nil {
		return nil, err
	}
	want := codecTag(codec)
	if tag == want {
		return codec, nil
	}
	if tr, ok := codec.(interface {
		ForTag(string) (ring.Codec[V], bool)
	}); ok {
		if c, ok := tr.ForTag(tag); ok {
			return c, nil
		}
	}
	return nil, fmt.Errorf("view: %s written with codec %s, this engine uses %s", what, tag, want)
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
	if !value.NewSchema(attrs...).Equal(want) {
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
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
