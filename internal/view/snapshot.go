package view

import (
	"bufio"
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

const (
	snapshotMagic   = "FIVMSNAP"
	snapshotVersion = 2
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

// WriteSnapshot persists the tree's input relations to w using codec
// for payloads. The tree itself is unchanged.
func (t *Tree[V]) WriteSnapshot(w io.Writer, codec ring.Codec[V]) error {
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	if err := writeString(bw, codecTag(codec)); err != nil {
		return err
	}
	names := t.RelationNames()
	if err := writeUvarint(bw, uint64(len(names))); err != nil {
		return err
	}
	for _, name := range names {
		src := t.sources[name]
		if err := writeString(bw, name); err != nil {
			return err
		}
		attrs := src.schema.Attrs()
		if err := writeUvarint(bw, uint64(len(attrs))); err != nil {
			return err
		}
		for _, a := range attrs {
			if err := writeString(bw, a); err != nil {
				return err
			}
		}
		if err := writeUvarint(bw, uint64(src.data.Len())); err != nil {
			return err
		}
		var encErr error
		src.data.Each(func(tp value.Tuple, p V) {
			if encErr != nil {
				return
			}
			if encErr = writeString(bw, tp.Encode()); encErr != nil {
				return
			}
			encErr = codec.Encode(bw, p)
		})
		if encErr != nil {
			return encErr
		}
	}
	return bw.Flush()
}

// ReadSnapshot restores the tree's input relations from r and
// re-evaluates every view bottom-up. The snapshot's relations must
// match the tree's configuration (names and schemas); any previous
// contents are discarded.
func (t *Tree[V]) ReadSnapshot(r io.Reader, codec ring.Codec[V]) error {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("view: reading snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("view: not a F-IVM snapshot (magic %q)", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return err
	}
	switch ver {
	case 1:
		// Pre-tag format: no codec identification; trust the caller.
	case snapshotVersion:
		tag, err := readString(br)
		if err != nil {
			return err
		}
		if want := codecTag(codec); tag != want {
			return fmt.Errorf("view: snapshot written with codec %s, engine uses %s", tag, want)
		}
	default:
		return fmt.Errorf("view: unsupported snapshot version %d", ver)
	}
	nRels, err := readUvarint(br)
	if err != nil {
		return err
	}
	if nRels != uint64(len(t.sources)) {
		return fmt.Errorf("view: snapshot has %d relations, tree has %d", nRels, len(t.sources))
	}
	loaded := map[string]*relation.Map[V]{}
	for i := uint64(0); i < nRels; i++ {
		name, err := readString(br)
		if err != nil {
			return err
		}
		src, ok := t.sources[name]
		if !ok {
			return fmt.Errorf("view: snapshot relation %s not in tree", name)
		}
		nAttrs, err := readUvarint(br)
		if err != nil {
			return err
		}
		attrs := make([]string, nAttrs)
		for j := range attrs {
			if attrs[j], err = readString(br); err != nil {
				return err
			}
		}
		if !value.NewSchema(attrs...).Equal(src.schema) {
			return fmt.Errorf("view: snapshot schema %v for %s, tree has %v", attrs, name, src.schema)
		}
		nTuples, err := readUvarint(br)
		if err != nil {
			return err
		}
		m := relation.New[V](src.schema)
		for j := uint64(0); j < nTuples; j++ {
			key, err := readString(br)
			if err != nil {
				return err
			}
			tp, err := value.DecodeTuple(key)
			if err != nil {
				return fmt.Errorf("view: snapshot tuple in %s: %w", name, err)
			}
			if len(tp) != src.schema.Len() {
				// A desynced (corrupt) payload stream can still decode
				// into a valid-looking tuple of the wrong arity; error
				// out rather than panic in the relation layer.
				return fmt.Errorf("view: snapshot tuple in %s has %d attributes, schema has %d (corrupt snapshot?)", name, len(tp), src.schema.Len())
			}
			p, err := codec.Decode(br)
			if err != nil {
				return err
			}
			if !t.ring.IsZero(p) { // never stored; a crafted stream must not smuggle one in
				m.Set(tp, p)
			}
		}
		loaded[name] = m
	}
	for name, m := range loaded {
		t.sources[name].data = m
	}
	for _, root := range t.roots {
		t.refresh(root)
	}
	t.recomputeResult()
	t.registerIndexes()
	return nil
}

// The small binary helpers mirror ring's unexported ones; duplicated
// here to keep the packages decoupled.

func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [10]byte
	n := 0
	for v >= 0x80 {
		buf[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	buf[n] = byte(v)
	_, err := w.Write(buf[:n+1])
	return err
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	var out uint64
	var shift uint
	for {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		out |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return out, nil
		}
		shift += 7
		if shift > 63 {
			return 0, fmt.Errorf("view: varint overflow")
		}
	}
}

func writeString(w *bufio.Writer, s string) error {
	if err := writeUvarint(w, uint64(len(s))); err != nil {
		return err
	}
	_, err := w.WriteString(s)
	return err
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readUvarint(r)
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
