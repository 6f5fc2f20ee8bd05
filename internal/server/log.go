package server

import (
	"fmt"
	"strings"
)

// LogLevel orders the shell's log severities. Config.LogLevel is the
// minimum level emitted; LevelInfo is the default.
type LogLevel int

const (
	LevelDebug LogLevel = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String implements fmt.Stringer with the log line's level token.
func (l LogLevel) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// log emits one structured key=value line through Config.Logf:
//
//	level=warn msg="handshake failed" conn=127.0.0.1:9 err="bad magic"
//
// kv is alternating key, value pairs; values are rendered with %v and
// quoted when they contain spaces, quotes or control bytes, so the line
// stays machine-splittable on spaces. Request-scoped call sites always
// pass the request and trace IDs — the contract that makes a slow-query
// entry, an access-log record and a log line about one request joinable.
func (s *Shell) log(level LogLevel, msg string, kv ...any) {
	if s.cfg.Logf == nil || level < s.cfg.LogLevel {
		return
	}
	var b strings.Builder
	b.WriteString("level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(logValue(msg))
	for i := 0; i+1 < len(kv); i += 2 {
		b.WriteByte(' ')
		fmt.Fprintf(&b, "%v", kv[i])
		b.WriteByte('=')
		b.WriteString(logValue(fmt.Sprintf("%v", kv[i+1])))
	}
	s.cfg.Logf("%s", b.String())
}

// logValue renders one value token, quoting only when needed.
func logValue(v string) string {
	if v == "" {
		return `""`
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c <= ' ' || c == '"' || c == '=' || c > 0x7e {
			return fmt.Sprintf("%q", v)
		}
	}
	return v
}
