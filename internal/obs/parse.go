package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// A minimal Prometheus text-exposition (version 0.0.4) parser. Its
// consumer is the /metrics lint in the server's tests: every line a
// scraper would see must parse, and the values read back must match
// what the server counted. A check through the same render path would
// be circular, so the parser is written strictly from the wire format.

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Label returns one label's value ("" when absent).
func (s *Sample) Label(name string) string { return s.Labels[name] }

// Exposition is a parsed scrape.
type Exposition struct {
	Samples []Sample
	// Types maps family name to its declared TYPE (counter, gauge,
	// histogram, untyped).
	Types map[string]string
}

// Find returns the samples with the given metric name, in exposition
// order.
func (e *Exposition) Find(name string) []Sample {
	var out []Sample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the single sample with the given name and label
// restrictions (pairs of key, value), or an error when there is not
// exactly one match.
func (e *Exposition) Value(name string, labelPairs ...string) (float64, error) {
	if len(labelPairs)%2 != 0 {
		return 0, fmt.Errorf("obs: odd label pair list for %s", name)
	}
	var found []Sample
sample:
	for _, s := range e.Find(name) {
		for i := 0; i < len(labelPairs); i += 2 {
			if s.Labels[labelPairs[i]] != labelPairs[i+1] {
				continue sample
			}
		}
		found = append(found, s)
	}
	if len(found) != 1 {
		return 0, fmt.Errorf("obs: %d samples match %s %v, want exactly 1", len(found), name, labelPairs)
	}
	return found[0].Value, nil
}

// ParseExposition parses Prometheus text exposition format. It is
// strict: any line that is not a well-formed comment, blank, or sample
// is an error (this is what the lint test wants — a scraper would drop
// or misread such a line silently).
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Types: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if trimmed == "" {
			continue
		}
		if strings.HasPrefix(trimmed, "#") {
			if err := parseComment(trimmed, e); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSampleLine(trimmed)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

func parseComment(line string, e *Exposition) error {
	fields := strings.Fields(line)
	// "# HELP name text..." / "# TYPE name kind" / other comments pass.
	if len(fields) < 2 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return nil
	}
	if len(fields) < 3 || !metricName.MatchString(fields[2]) {
		return fmt.Errorf("malformed %s comment %q", fields[1], line)
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		switch fields[3] {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
		e.Types[fields[2]] = fields[3]
	}
	return nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	// Metric name.
	i := strings.IndexAny(rest, "{ \t")
	if i < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:i]
	if !metricName.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[i:]
	// Optional label block.
	if rest[0] == '{' {
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("unterminated label block in %q", line)
		}
		if err := parseLabels(rest[1:end], s.Labels); err != nil {
			return s, fmt.Errorf("%w in %q", err, line)
		}
		rest = rest[end+1:]
	}
	// Value (timestamps are not emitted by this registry; reject extras).
	fields := strings.Fields(rest)
	if len(fields) != 1 {
		return s, fmt.Errorf("expected exactly one value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	s.Value = v
	return s, nil
}

func parseValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return float64(int64(1) << 62), nil
	case "-Inf":
		return -float64(int64(1) << 62), nil
	}
	return strconv.ParseFloat(f, 64)
}

func parseLabels(block string, into map[string]string) error {
	rest := block
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return fmt.Errorf("label %q missing '='", rest)
		}
		name := strings.TrimSpace(rest[:eq])
		if !metricName.MatchString(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		rest = rest[eq+1:]
		if rest == "" || rest[0] != '"' {
			return fmt.Errorf("label %q value not quoted", name)
		}
		// Scan the quoted value honoring backslash escapes.
		val := strings.Builder{}
		i := 1
		for {
			if i >= len(rest) {
				return fmt.Errorf("label %q value unterminated", name)
			}
			c := rest[i]
			if c == '\\' {
				if i+1 >= len(rest) {
					return fmt.Errorf("label %q value has trailing backslash", name)
				}
				switch rest[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("label %q has invalid escape \\%c", name, rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		into[name] = val.String()
		rest = rest[i:]
		rest = strings.TrimPrefix(strings.TrimSpace(rest), ",")
		rest = strings.TrimSpace(rest)
	}
	return nil
}
