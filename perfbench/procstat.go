package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat. USER_HZ is 100
// on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user+system CPU time (all threads) from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it are fixed.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(f))
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: utime %q stime %q", pid, f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// selfCPU returns this process's user+system CPU time at microsecond
// resolution.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procHWM returns a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("parse VmHWM %q", line)
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

// resetHWM restarts a process's peak-RSS accounting at its current RSS
// (proc(5), clear_refs value 5), so VmHWM read later covers only the
// measured window.
func resetHWM(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// cpuPoint is one reading of the server's and this process's CPU time.
type cpuPoint struct {
	at          time.Time
	server, gen time.Duration
}

func readCPU(pid int) (cpuPoint, error) {
	s, err := procCPU(pid)
	return cpuPoint{at: time.Now(), server: s, gen: selfCPU()}, err
}

// cpuTrack reads CPU time at a fixed interval over the window.
type cpuTrack struct {
	pid    int
	points []cpuPoint
	err    error
	stopc  chan struct{}
	done   chan struct{}
}

func startTrack(pid int, every time.Duration) (*cpuTrack, error) {
	first, err := readCPU(pid)
	if err != nil {
		return nil, err
	}
	t := &cpuTrack{pid: pid, points: []cpuPoint{first}, stopc: make(chan struct{}), done: make(chan struct{})}
	go t.loop(every)
	return t, nil
}

func (t *cpuTrack) loop(every time.Duration) {
	defer close(t.done)
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-t.stopc:
			return
		case <-tick.C:
			pt, err := readCPU(t.pid)
			if err != nil {
				t.err = err
				return
			}
			t.points = append(t.points, pt)
		}
	}
}

// stop takes a last reading and returns them all, oldest first.
func (t *cpuTrack) stop() ([]cpuPoint, error) {
	close(t.stopc)
	<-t.done
	if t.err != nil {
		return nil, t.err
	}
	last, err := readCPU(t.pid)
	if err != nil {
		return nil, err
	}
	return append(t.points, last), nil
}
