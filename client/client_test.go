package client

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// waitOn runs WaitForProof against a job endpoint that reports
// "running" until jobTime has passed since the first poll, and returns
// how long after that instant the call came back and how many polls it
// took.
func waitOn(t *testing.T, jobTime time.Duration) (late time.Duration, polls int64) {
	t.Helper()
	var doneAt atomic.Pointer[time.Time]
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		at := time.Now().Add(jobTime)
		doneAt.CompareAndSwap(nil, &at)
		status := JobRunning
		if !time.Now().Before(*doneAt.Load()) {
			status = JobDone
		}
		json.NewEncoder(w).Encode(JobStatus{JobID: "job-1", Status: status})
	}))
	defer ts.Close()
	c, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	js, err := c.WaitForProof(ctx, "job-1")
	if err != nil || js.Status != JobDone {
		t.Fatalf("WaitForProof: %+v, %v", js, err)
	}
	return time.Since(*doneAt.Load()), n.Load()
}

// TestWaitForProofPollsProportionally: the poll interval follows the
// time already waited, so a finished job is seen within 15 % of its own
// duration and the poll count grows with the logarithm of that duration
// — a fixed interval gives neither.
func TestWaitForProofPollsProportionally(t *testing.T) {
	// About ten polls at the 1 ms floor, then intervals growing 10 % a
	// poll; a slow machine only polls less often.
	maxPolls := func(d time.Duration) int64 {
		return 12 + int64(math.Log(float64(d)/float64(10*time.Millisecond))/math.Log(1.1))
	}
	for _, jobTime := range []time.Duration{80 * time.Millisecond, 640 * time.Millisecond} {
		// A descheduled test process can add any delay to one wake-up:
		// the bound has to hold on one of three tries.
		var late time.Duration
		var polls int64
		for try := 0; try < 3; try++ {
			late, polls = waitOn(t, jobTime)
			if late <= jobTime*15/100 {
				break
			}
		}
		if late > jobTime*15/100 {
			t.Errorf("%v job seen done %v late, want within 15 %%", jobTime, late)
		}
		if polls > maxPolls(jobTime) {
			t.Errorf("%v job took %d polls, want at most %d", jobTime, polls, maxPolls(jobTime))
		}
		t.Logf("%v job: seen %v late after %d polls (bound %d)", jobTime, late, polls, maxPolls(jobTime))
	}
}
