package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/value"
	"repro/internal/view"
)

// The reflective decoder DecodeUpdates replaced, kept as the reference
// FuzzDecodeUpdates holds the scanner to: encoding/json's Decoder with
// UseNumber into wire structs, then a second pass to typed values.

type refUpdateJSON struct {
	Rel   string `json:"rel"`
	Tuple []any  `json:"tuple"`
	Mult  *int   `json:"mult,omitempty"`
}

type refUpdateRequest struct {
	Updates []refUpdateJSON `json:"updates"`
}

func refDecodeUpdates(r io.Reader) ([]refUpdateJSON, []view.Update, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var req refUpdateRequest
	if err := dec.Decode(&req); err != nil {
		return nil, nil, fmt.Errorf("decoding body: %w", err)
	}
	ups := make([]view.Update, 0, len(req.Updates))
	for i, u := range req.Updates {
		tuple := make(value.Tuple, len(u.Tuple))
		for j, f := range u.Tuple {
			v, err := refValueFromJSON(f)
			if err != nil {
				return nil, nil, fmt.Errorf("updates[%d].tuple[%d]: %w", i, j, err)
			}
			tuple[j] = v
		}
		mult := 1
		if u.Mult != nil {
			mult = *u.Mult
		}
		ups = append(ups, view.Update{Rel: u.Rel, Tuple: tuple, Mult: mult})
	}
	return req.Updates, ups, nil
}

func refValueFromJSON(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null(), nil
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return value.Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return value.Value{}, fmt.Errorf("bad number %q", x)
		}
		return value.Float(f), nil
	case string:
		return value.String(x), nil
	default:
		return value.Value{}, fmt.Errorf("unsupported JSON value %v (want number, string, or null)", v)
	}
}
