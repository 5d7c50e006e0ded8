package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// readyTimeout bounds how long a launched server may take to answer.
const readyTimeout = 30 * time.Second

// proc is one server process the benchmark launched.
type proc struct {
	cmd  *exec.Cmd
	base string // learner-facing API, http://127.0.0.1:port
	ops  string // ops listener, http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// launch starts a server binary on a journal directory. The flags are the
// examserver flags the benchmark fixes: journal on with the default fsync
// policy, no rate limiting, no access log, ops listener on loopback. The
// server's output is appended to server.log beside the journal.
func launch(bin, seedBank, journal string, procs int) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	ops, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(journal), "server.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-bank", seedBank, "-journal", journal,
		"-rate", "0", "-quiet", "-addr", addr, "-ops", ops)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, base: "http://" + addr, ops: "http://" + ops, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server is expected
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// ready polls the API until it answers, failing fast if the process exits.
func (p *proc) ready(ctx context.Context, hc *http.Client) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/v1/exams", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("server exited before it was ready (see %s)", p.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("server not ready after %s: %w", readyTimeout, ctx.Err())
		case <-tick.C:
		}
	}
}

// kill stops the server at once (SIGKILL: no drain, no shutdown compaction)
// and waits until it has been reaped.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // fails only if the process already exited
	<-p.done
	p.log.Close()
}

// alive reports whether the process is still running.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

var errServerDied = errors.New("server process exited during the run")
