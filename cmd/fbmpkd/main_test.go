package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"fbmpk"
	"fbmpk/internal/mmio"
	"fbmpk/internal/serve"
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

// TestRunDrains drives run on an ephemeral port through an upload, an
// MPK request, an in-place values update and an MPK on the new key, then
// cancels its context: run must drain and return nil.
func TestRunDrains(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, serve.Config{
			PlanOptions: []fbmpk.Option{fbmpk.WithThreads(2)},
			Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		}, ln, 10*time.Second)
	}()

	a, err := fbmpk.GenerateSuiteMatrix("cant", 0.004, 1)
	if err != nil {
		t.Fatal(err)
	}
	// post sends body, a matrix as MatrixMarket or anything else as
	// JSON, and decodes the OK answer into out.
	post := func(path string, body, out any) {
		t.Helper()
		var buf bytes.Buffer
		var err error
		ctype := "application/json"
		if m, ok := body.(*fbmpk.Matrix); ok {
			ctype, err = "text/plain", mmio.Write(&buf, m)
		} else {
			err = json.NewEncoder(&buf).Encode(body)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, ctype, &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, raw, err)
		}
	}
	var up serve.UploadResponse
	post("/v1/matrix", a, &up)
	var before, after serve.OpResponse
	post("/v1/mpk", serve.OpRequest{Matrix: up.Key, K: 4, Return: serve.ReturnChecksum}, &before)
	b := *a
	b.Val = make([]float64, len(a.Val))
	for i, v := range a.Val {
		b.Val[i] = 2 * v
	}
	var upd serve.UpdateResponse
	post("/v1/matrix/"+up.Key+"/values", &b, &upd)
	if !upd.Updated || upd.Key == up.Key {
		t.Fatalf("values update: updated=%v key moved=%v, want true, true", upd.Updated, upd.Key != up.Key)
	}
	post("/v1/mpk", serve.OpRequest{Matrix: upd.Key, K: 4, Return: serve.ReturnChecksum}, &after)
	if after.Checksum == before.Checksum {
		t.Fatal("MPK on the updated values returned the old checksum")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context was canceled")
	}
}
