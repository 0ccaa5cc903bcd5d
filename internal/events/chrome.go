package events

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Chrome trace-event export: the JSON Object Format of the Trace
// Event specification, loadable in Perfetto (ui.perfetto.dev) and
// chrome://tracing. Every retained event becomes one complete ("X")
// event; lanes map to tids with thread-name metadata so the timeline
// shows "caller 0..C-1" and "worker 0..W-1" rows, and each recorder
// becomes one pid.

// WriteChromeTrace writes the retained events of the given recorders
// as one Chrome trace-event JSON document. Recorder i becomes process
// pid i+1; nil recorders are skipped. Timestamps are microseconds from
// each recorder's epoch (the "ts" unit the format mandates).
func WriteChromeTrace(w io.Writer, recs ...*Recorder) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
		bw.WriteString(s)
	}
	for ri, r := range recs {
		if r == nil {
			continue
		}
		pid := ri + 1
		for laneID := 0; laneID < r.Lanes(); laneID++ {
			evs := r.LaneEvents(laneID)
			if len(evs) == 0 {
				continue
			}
			emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
				pid, laneID, strconv.Quote(laneName(r, laneID))))
			for _, ev := range evs {
				trace := ""
				if ev.Trace != "" {
					trace = `,"trace":` + strconv.Quote(ev.Trace)
				}
				emit(fmt.Sprintf(`{"name":%s,"cat":%s,"ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"seq":%d,"arg":%d%s}}`,
					strconv.Quote(ev.Name), strconv.Quote(ev.Kind.String()),
					micros(ev.Start), micros(ev.Dur), pid, ev.Lane, ev.Seq, ev.Arg, trace))
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func laneName(r *Recorder, laneID int) string {
	if laneID < r.callers {
		return fmt.Sprintf("caller %d", laneID)
	}
	return fmt.Sprintf("worker %d", laneID-r.callers)
}

// micros renders a nanosecond duration as a decimal microsecond
// count with nanosecond resolution (the trace format takes fractional
// "ts"/"dur" values).
func micros(d time.Duration) string {
	ns := d.Nanoseconds()
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", neg, ns/1000, ns%1000)
}
