//! Readiness polling over raw OS syscalls.
//!
//! The workspace vendors no libc/mio crate, so this module declares the
//! handful of `extern "C"` entry points the reactor needs: `epoll` on
//! Linux (O(ready) wakeups — the 10k-connection target makes `poll`'s
//! O(registered) per-call scan a real cost), a `poll(2)` fallback on
//! other Unixes, and `setrlimit` so a process serving (or opening)
//! thousands of sockets can lift the file-descriptor ceiling first.
//!
//! The poller is deliberately tiny and private to the crate:
//! register/modify/deregister a raw fd under a `u64` token, and wait
//! for `Event`s. The reactor is its one user. Only
//! [`raise_nofile_limit`] is public.

/// Interest in readability.
pub(crate) const EV_READ: u32 = 0b01;
/// Interest in writability.
pub(crate) const EV_WRITE: u32 = 0b10;

/// One readiness event. `hangup` flags error/EOF conditions the OS
/// reports regardless of registered interest; consumers usually treat
/// it like readability (the next read returns 0 or an error).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Event, EV_READ, EV_WRITE};
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    // The kernel packs struct epoll_event only on x86/x86_64; every
    // other Linux arch lays it out with natural alignment (16 bytes,
    // 4 bytes of padding after `events`). The repr must match the
    // kernel's per-arch layout or epoll_wait writes events at the
    // wrong stride into `scratch` — so gate packing exactly the way
    // libc does.
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const _: () = assert!(
        std::mem::size_of::<EpollEvent>()
            == if cfg!(any(target_arch = "x86", target_arch = "x86_64")) {
                12
            } else {
                16
            }
    );

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    pub struct Poller {
        epfd: i32,
        scratch: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                scratch: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest_to_epoll(interest),
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let ms = timeout.map_or(-1i32, |d| d.as_millis().min(i32::MAX as u128) as i32);
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.scratch.as_mut_ptr(),
                    self.scratch.len() as i32,
                    ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for ev in &self.scratch[..n as usize] {
                let bits = { ev.events };
                let token = { ev.data };
                out.push(Event {
                    token,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    hangup: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    fn interest_to_epoll(interest: u32) -> u32 {
        let mut bits = 0;
        if interest & EV_READ != 0 {
            bits |= EPOLLIN;
        }
        if interest & EV_WRITE != 0 {
            bits |= EPOLLOUT;
        }
        bits
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{Event, EV_READ, EV_WRITE};
    use std::collections::HashMap;
    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
    }

    /// Stateless-`poll(2)` fallback: registrations live in a map and
    /// the fd array is rebuilt per wait. O(registered) per call — fine
    /// for the non-Linux dev loop, not for the 10k benchmark.
    pub struct Poller {
        regs: HashMap<RawFd, (u64, u32)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                regs: HashMap::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.regs.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
            self.regs.insert(fd, (token, interest));
            Ok(())
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.regs.remove(&fd);
            Ok(())
        }

        pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .regs
                .iter()
                .map(|(&fd, &(_, interest))| PollFd {
                    fd,
                    events: {
                        let mut e = 0i16;
                        if interest & EV_READ != 0 {
                            e |= POLLIN;
                        }
                        if interest & EV_WRITE != 0 {
                            e |= POLLOUT;
                        }
                        e
                    },
                    revents: 0,
                })
                .collect();
            let ms = timeout.map_or(-1i32, |d| d.as_millis().min(i32::MAX as u128) as i32);
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u32, ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for pfd in &fds {
                if pfd.revents == 0 {
                    continue;
                }
                let token = self.regs[&pfd.fd].0;
                out.push(Event {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    hangup: pfd.revents & (POLLERR | POLLHUP | POLLNVAL) != 0,
                });
            }
            Ok(())
        }
    }
}

pub(crate) use sys::Poller;

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

#[cfg(target_os = "linux")]
const RLIMIT_NOFILE: i32 = 7;
#[cfg(all(unix, not(target_os = "linux")))]
const RLIMIT_NOFILE: i32 = 8;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Best-effort raise of the open-file soft limit to at least `want`
/// descriptors (also raising the hard limit when the process may).
/// Returns the effective soft limit. A process holding both ends of
/// many loopback connections needs ~2 fds per connection plus slack;
/// the default soft limit of 1024 on many systems would otherwise fail
/// `accept` with EMFILE long before the interesting part.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut cur = Rlimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut cur) } != 0 {
        return 0;
    }
    if cur.cur >= want {
        return cur.cur;
    }
    // Try the full ask (root may raise the hard limit too), then fall
    // back to whatever headroom the existing hard limit allows.
    let ambitious = Rlimit {
        cur: want,
        max: cur.max.max(want),
    };
    if unsafe { setrlimit(RLIMIT_NOFILE, &ambitious) } == 0 {
        return want;
    }
    let capped = Rlimit {
        cur: want.min(cur.max),
        max: cur.max,
    };
    if unsafe { setrlimit(RLIMIT_NOFILE, &capped) } == 0 {
        return capped.cur;
    }
    cur.cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    #[test]
    fn poller_reports_readability() {
        let (mut a, mut b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.register(b.as_raw_fd(), 7, EV_READ).unwrap();

        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "nothing written yet");

        a.write_all(b"x").unwrap();
        p.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        p.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn poller_reports_writability_and_modify() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut p = Poller::new().unwrap();
        p.register(a.as_raw_fd(), 1, EV_READ).unwrap();
        p.modify(a.as_raw_fd(), 1, EV_READ | EV_WRITE).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
    }

    #[test]
    fn nofile_limit_is_queryable() {
        // Asking for less than the current limit is a no-op returning
        // the current value; never goes backwards.
        let n = raise_nofile_limit(8);
        assert!(n >= 8);
    }
}
