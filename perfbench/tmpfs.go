package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// privateNSEnv marks the copy of the program that runs in its own mount
// namespace.
const privateNSEnv = "PERFBENCH_PRIVATE_NS"

// reexecPrivate runs this program again in a mount namespace of its own and
// returns its exit code. There the results root can be a tmpfs mounted
// inside the checkout that no other process sees and that goes away when the
// copy exits. On a shared disk the cost of creating and deleting files swings
// severalfold from minute to minute, which would set the gated times; tmpfs
// keeps the results store's work and drops the disk's. ok is false when the
// namespace cannot be made; the caller then runs in place, results on disk.
func reexecPrivate() (code int, ok bool) {
	// Pdeathsig fires when the thread that started the copy exits; keep
	// that thread for as long as this process lives.
	runtime.LockOSThread()
	cmd := exec.Command("/proc/self/exe", os.Args[1:]...)
	cmd.Args[0] = os.Args[0]
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	cmd.Env = append(os.Environ(), privateNSEnv+"=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{
		Unshareflags: syscall.CLONE_NEWNS,
		// The copy must not outlive this process if it is killed.
		Pdeathsig: syscall.SIGKILL,
	}
	if err := cmd.Start(); err != nil {
		runtime.UnlockOSThread()
		fmt.Fprintln(os.Stderr, "perfbench: no private mount namespace, results stay on disk:", err)
		return 0, false
	}
	err := cmd.Wait()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, true
	case errors.As(err, &exit) && exit.ExitCode() > 0:
		return exit.ExitCode(), true
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1, true
}

// mountTmpfs mounts a tmpfs over dir when the program runs in its private
// mount namespace, and returns the function that unmounts it. Elsewhere, or
// if the mount fails, dir stays on disk and the returned function does
// nothing.
func mountTmpfs(dir string) func() {
	if os.Getenv(privateNSEnv) == "" {
		return func() {}
	}
	if err := syscall.Mount("perfbench", dir, "tmpfs", syscall.MS_NOSUID|syscall.MS_NODEV, "size=512m,mode=0755"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results stay on disk: mounting tmpfs:", err)
		return func() {}
	}
	return func() { syscall.Unmount(dir, syscall.MNT_DETACH) }
}
