package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseExposition validates a Prometheus text exposition payload and
// returns its samples keyed by the full series name (metric name plus
// the literal label block, exactly as rendered). It checks what a
// scraper checks: comment lines are well-formed # HELP / # TYPE
// headers, every sample line splits into a valid series name and a
// parseable float value, and label blocks are brace-balanced. It is
// the counterpart of Registry.WritePrometheus, shared by the
// exposition-format tests and the benchmark's /metrics scrape (bench/).
func ParseExposition(r io.Reader) (map[string]float64, error) {
	samples := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := checkComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		name, value, err := splitSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, dup := samples[name]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, name)
		}
		samples[name] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no samples in exposition payload")
	}
	return samples, nil
}

func checkComment(line string) error {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	default:
		// Other comments are allowed free-form.
	}
	return nil
}

func splitSample(line string) (string, float64, error) {
	// The series name may contain spaces only inside the label block's
	// quoted values; the value is the last space-separated field.
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return "", 0, fmt.Errorf("sample %q has no value", line)
	}
	name, valueText := strings.TrimSpace(line[:i]), line[i+1:]
	value, err := strconv.ParseFloat(valueText, 64)
	if err != nil {
		return "", 0, fmt.Errorf("sample %q: bad value %q", line, valueText)
	}
	bare := name
	if j := strings.IndexByte(name, '{'); j >= 0 {
		if !strings.HasSuffix(name, "}") {
			return "", 0, fmt.Errorf("sample %q: unbalanced label block", line)
		}
		if err := checkLabels(name[j+1 : len(name)-1]); err != nil {
			return "", 0, fmt.Errorf("sample %q: %w", line, err)
		}
		bare = name[:j]
	}
	if !validMetricName(bare) {
		return "", 0, fmt.Errorf("sample %q: invalid metric name %q", line, bare)
	}
	return name, value, nil
}

func checkLabels(block string) error {
	// Every pair is name="value"; values may contain commas, so split
	// on `",` boundaries rather than naively on commas.
	rest := block
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 || !validMetricName(rest[:eq]) {
			return fmt.Errorf("bad label pair in %q", block)
		}
		v := rest[eq+1:]
		if len(v) < 2 || v[0] != '"' {
			return fmt.Errorf("unquoted label value in %q", block)
		}
		end := strings.IndexByte(v[1:], '"')
		if end < 0 {
			return fmt.Errorf("unterminated label value in %q", block)
		}
		rest = v[end+2:]
		if rest == "" {
			break
		}
		if rest[0] != ',' {
			return fmt.Errorf("bad separator in label block %q", block)
		}
		rest = rest[1:]
	}
	return nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		letter := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !letter && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
