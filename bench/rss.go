package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// procStatusKB reads one "<field>:   <n> kB" line of /proc/self/status
// (VmRSS, VmHWM). It returns 0 where /proc is unavailable.
func procStatusKB(field string) int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if !bytes.HasPrefix(line, []byte(field+":")) {
			continue
		}
		f := bytes.Fields(line[len(field)+1:])
		if len(f) == 0 {
			return 0
		}
		n, _ := strconv.ParseInt(string(f[0]), 10, 64)
		return n
	}
	return 0
}

// rssSampler polls VmRSS every 10 ms and keeps the maximum. The kernel's
// own high-water mark (VmHWM) cannot be reset per phase, so the timed
// phase's peak is sampled instead.
type rssSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  int64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), max: procStatusKB("VmRSS")}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if v := procStatusKB("VmRSS"); v > s.max {
					s.max = v
				}
			}
		}
	}()
	return s
}

// stopMB ends sampling and returns the peak in MB (10^6 bytes).
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	s.wg.Wait()
	if v := procStatusKB("VmRSS"); v > s.max {
		s.max = v
	}
	return float64(s.max) * 1024 / 1e6
}
