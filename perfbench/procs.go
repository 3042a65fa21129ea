package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	bootTimeout = 120 * time.Second
	stopTimeout = 30 * time.Second
	cliTimeout  = 150 * time.Second
)

// orphanGuard has the kernel kill a child if the benchmark itself is
// killed, so no daemon outlives the run.
func orphanGuard() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// daemon is one oracled process listening on an ephemeral loopback port.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	url    string // base URL, learned from the "serving on" line
	health string // health path: /healthz, or /internal/health for a shard

	done     chan struct{} // closed once the process has exited
	waitErr  error
	stopping bool // set before SIGTERM, read after done

	mu  sync.Mutex
	log bytes.Buffer // the daemon's stderr, for diagnostics
}

// startDaemon launches bin with args plus -addr 127.0.0.1:0 and returns
// once the daemon has printed its listen address.
func startDaemon(name, bin, health string, args ...string) (*daemon, error) {
	d := &daemon{name: name, health: health, done: make(chan struct{})}
	d.cmd = exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	d.cmd.SysProcAttr = orphanGuard()
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d.cmd.Stderr = &lockedWriter{mu: &d.mu, w: &d.log}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	urlc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "serving on "); i >= 0 && !sent {
				urlc <- strings.TrimSpace(line[i+len("serving on "):])
				sent = true
			}
		}
		// Read to EOF before Wait, as exec requires for a StdoutPipe.
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case d.url = <-urlc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", name, d.waitErr, d.stderr())
	case <-time.After(bootTimeout):
		d.kill()
		return nil, fmt.Errorf("%s printed no listen address within %v", name, bootTimeout)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (d *daemon) stderr() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// alive reports an error if the daemon has exited without being asked to.
func (d *daemon) alive() error {
	select {
	case <-d.done:
		if !d.stopping {
			return fmt.Errorf("%s died: %v\n%s", d.name, d.waitErr, d.stderr())
		}
	default:
	}
	return nil
}

// waitHealthy polls the health path until it answers 200.
func (d *daemon) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(bootTimeout)
	for time.Now().Before(deadline) {
		if err := d.alive(); err != nil {
			return err
		}
		resp, err := client.Get(d.url + d.health)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy within %v", d.name, bootTimeout)
}

// stop sends SIGTERM, waits for the drain, and requires exit status 0. It
// returns the process's peak resident set in bytes.
func (d *daemon) stop() (int64, error) {
	select {
	case <-d.done:
		if err := d.alive(); err != nil {
			return 0, err
		}
	default:
		d.stopping = true
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return 0, fmt.Errorf("signal %s: %w", d.name, err)
		}
		select {
		case <-d.done:
		case <-time.After(stopTimeout):
			d.kill()
			return 0, fmt.Errorf("%s did not exit within %v of SIGTERM", d.name, stopTimeout)
		}
	}
	if d.waitErr != nil {
		return 0, fmt.Errorf("%s exited with %v after SIGTERM\n%s", d.name, d.waitErr, d.stderr())
	}
	return maxRSS(d.cmd.ProcessState), nil
}

// kill ends the process without a drain and waits for it; it is for error
// paths, where the run already failed.
func (d *daemon) kill() {
	d.stopping = true
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

func maxRSS(ps interface{ SysUsage() any }) int64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss * 1024 // Linux reports kilobytes
	}
	return 0
}

// fleet owns every daemon a run starts, so any exit path can stop them.
type fleet struct{ ds []*daemon }

func (f *fleet) add(d *daemon) { f.ds = append(f.ds, d) }

func (f *fleet) len() int { return len(f.ds) }

// check fails if any daemon of the fleet died.
func (f *fleet) check() error {
	for _, d := range f.ds {
		if err := d.alive(); err != nil {
			return err
		}
	}
	return nil
}

// stopAll stops every daemon and returns their summed peak RSS.
func (f *fleet) stopAll() (int64, error) {
	var total int64
	var errs []error
	for _, d := range f.ds {
		rss, err := d.stop()
		total += rss
		errs = append(errs, err)
	}
	f.ds = nil
	return total, errors.Join(errs...)
}

// killAll is the error-path cleanup.
func (f *fleet) killAll() {
	for _, d := range f.ds {
		d.kill()
	}
	f.ds = nil
}

// runCLI runs one batch binary to completion and returns its stdout and
// wall time.
func runCLI(bin string, args ...string) (string, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), cliTimeout)
	defer cancel()
	var out, errb bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = orphanGuard()
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return "", 0, fmt.Errorf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, errb.String())
	}
	return out.String(), wall, nil
}
