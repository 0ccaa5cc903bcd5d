package main

import (
	"context"
	"log/slog"
	"strings"
	"testing"
)

// TestBuildLogger: every -log-format at every slog level yields a logger
// of that encoding enabled from that level up, and a bad -log-level or
// -log-format is refused with the flag named.
func TestBuildLogger(t *testing.T) {
	ctx := context.Background()
	for _, format := range []string{"text", "json"} {
		for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
			logger, err := buildLogger(strings.ToLower(lvl.String()), format)
			if err != nil {
				t.Fatalf("%s/%v: %v", format, lvl, err)
			}
			_, isJSON := logger.Handler().(*slog.JSONHandler)
			if isJSON != (format == "json") || !logger.Enabled(ctx, lvl) || logger.Enabled(ctx, lvl-1) {
				t.Errorf("%s/%v: handler %T, enabled below its level: %v", format, lvl, logger.Handler(), logger.Enabled(ctx, lvl-1))
			}
		}
	}
	if _, err := buildLogger("loud", "text"); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Errorf("bad level: err = %v, want one naming -log-level", err)
	}
	if _, err := buildLogger("info", "xml"); err == nil || !strings.Contains(err.Error(), "-log-format") {
		t.Errorf("bad format: err = %v, want one naming -log-format", err)
	}
}
