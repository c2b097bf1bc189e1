//! Simulated memory, and the machine state both engines start a run from.
//!
//! A run's address space is [`SimOptions::mem_words`](crate::SimOptions)
//! words that read zero until written: 2²¹ words (16 MiB) by default. A
//! run touches little of it, the globals at the bottom and the stack at
//! the top. On Linux, [`Memory::zeroed`] maps fresh anonymous pages, which
//! the kernel zero-fills on first touch, so a run pays for the pages it
//! touches plus one `munmap`, whatever its memory size. `vec![0; n]`
//! would pay for all `n` words from the second run on: freeing the first
//! 16 MiB block raises glibc's dynamic mmap threshold past it, so later
//! blocks come from the heap and `calloc` clears them with `memset`
//! (`docs/simulator.md`, "Simulated memory"). Every run maps its own
//! pages; nothing is pooled or reused across runs. Other targets use
//! `vec!`.

use crate::program::{Executable, GLOBALS_BASE};
use crate::regs::Reg;

/// The machine at its first instruction: `mem_words` words of memory
/// holding the executable's initialized data (words past the end are
/// dropped), and a register file that is zero but for the data pointer
/// (at the globals) and the stack pointer (one past the top of memory).
/// Both supported targets hardwire register 0 to zero, which the engines'
/// register writes rely on; the data and stack roles come from the
/// target description.
pub(crate) fn boot(exe: &Executable, mem_words: usize) -> (Memory, [i64; Reg::COUNT]) {
    let mut mem = Memory::zeroed(mem_words);
    for &(addr, v) in exe.data_init() {
        if let Some(slot) = mem.get_mut(addr as usize) {
            *slot = v;
        }
    }
    let desc = exe.target().desc();
    let mut regs = [0i64; Reg::COUNT];
    regs[desc.dp.index()] = GLOBALS_BASE;
    regs[desc.sp.index()] = mem_words as i64;
    (mem, regs)
}

/// `mmap`-backed memory where the flag values below are the kernel's
/// generic ones and `off_t` is a `c_long` (64-bit Linux on these
/// architectures; MIPS, for one, numbers `MAP_ANONYMOUS` differently).
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64", target_arch = "riscv64")
))]
mod imp {
    use std::alloc::{handle_alloc_error, Layout};
    use std::ffi::{c_int, c_long, c_void};
    use std::ops::{Deref, DerefMut};
    use std::ptr::NonNull;

    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A private anonymous mapping of `len` words, unmapped on drop.
    pub(crate) struct Memory {
        ptr: NonNull<i64>,
        len: usize,
    }

    impl Memory {
        /// `words` words that read zero. Panics on a size overflow and
        /// reports a failed map through [`handle_alloc_error`], as
        /// `vec![0; words]` does.
        pub(crate) fn zeroed(words: usize) -> Memory {
            let layout =
                Layout::array::<i64>(words).unwrap_or_else(|_| panic!("capacity overflow"));
            if layout.size() == 0 {
                return Memory { ptr: NonNull::dangling(), len: 0 };
            }
            // SAFETY: asks for a new private anonymous mapping with no
            // address hint and no file (fd −1, offset 0), so it cannot
            // alias any memory this process already uses.
            let p = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    layout.size(),
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            // `MAP_FAILED` is `(void *) -1`.
            match NonNull::new(p.cast::<i64>()) {
                Some(ptr) if p as usize != usize::MAX => Memory { ptr, len: words },
                _ => handle_alloc_error(layout),
            }
        }
    }

    impl Deref for Memory {
        type Target = [i64];

        #[inline(always)]
        fn deref(&self) -> &[i64] {
            // SAFETY: `ptr` is page-aligned (or dangling when `len` is 0)
            // and covers `len` readable words that `self` owns until drop;
            // the kernel zero-fills every page, and all bit patterns are
            // valid `i64`s. `Layout::array` bounded the size by
            // `isize::MAX`.
            unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
        }
    }

    impl DerefMut for Memory {
        #[inline(always)]
        fn deref_mut(&mut self) -> &mut [i64] {
            // SAFETY: as in `deref`; the mapping is writable, and
            // `&mut self` makes this the only live borrow of it.
            unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
        }
    }

    impl Drop for Memory {
        fn drop(&mut self) {
            if self.len == 0 {
                return;
            }
            // SAFETY: unmaps exactly the mapping `zeroed` made, once; no
            // borrow of it outlives `self`. A failure would only leak the
            // pages, so its result is ignored.
            unsafe {
                munmap(self.ptr.as_ptr().cast(), self.len * std::mem::size_of::<i64>());
            }
        }
    }
}

/// Heap-backed memory everywhere else.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64", target_arch = "riscv64")
)))]
mod imp {
    use std::ops::{Deref, DerefMut};

    /// `len` words on the heap.
    pub(crate) struct Memory(Vec<i64>);

    impl Memory {
        /// `words` words that read zero.
        pub(crate) fn zeroed(words: usize) -> Memory {
            Memory(vec![0; words])
        }
    }

    impl Deref for Memory {
        type Target = [i64];

        #[inline(always)]
        fn deref(&self) -> &[i64] {
            &self.0
        }
    }

    impl DerefMut for Memory {
        #[inline(always)]
        fn deref_mut(&mut self) -> &mut [i64] {
            &mut self.0
        }
    }
}

pub(crate) use imp::Memory;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_memory_reads_zero_and_keeps_writes() {
        for words in [0, 4095, 1 << 21] {
            let mut m = Memory::zeroed(words);
            assert_eq!(m.len(), words);
            if words > 0 {
                assert_eq!((m[0], m[words / 2], m[words - 1]), (0, 0, 0));
                m[words - 1] = -7;
                m[0] = 9;
                assert_eq!((m[0], m[words - 1]), (9, -7));
            }
        }
    }
}
