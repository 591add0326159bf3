//! Cisco wildcard masks.

use std::fmt;
use std::net::Ipv4Addr;

use crate::prefix::Prefix;

/// A Cisco ACL address matcher: a base address plus a *wildcard* mask whose
/// **set** bits are "don't care". `10.0.0.0 0.0.255.255` matches
/// `10.0.0.0/16`; unlike subnet masks, wildcard bits may be non-contiguous
/// (e.g. `0.0.1.255` matches two adjacent /24s, as in Table 7 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WildcardMask {
    /// The base address; bits under a set wildcard bit are ignored.
    pub addr: u32,
    /// Wildcard bits: 1 = ignore this bit.
    pub wildcard: u32,
}

impl WildcardMask {
    /// Matches every address.
    pub const ANY: WildcardMask = WildcardMask {
        addr: 0,
        wildcard: u32::MAX,
    };

    /// Construct from address and wildcard; "care" bits of the address are
    /// kept, ignored bits are normalized to zero so equality is semantic.
    pub fn new(addr: Ipv4Addr, wildcard: Ipv4Addr) -> Self {
        let w = u32::from(wildcard);
        WildcardMask {
            addr: u32::from(addr) & !w,
            wildcard: w,
        }
    }

    /// Exact-host matcher.
    pub fn host(addr: Ipv4Addr) -> Self {
        WildcardMask {
            addr: u32::from(addr),
            wildcard: 0,
        }
    }

    /// Matcher for every address in a prefix.
    pub fn from_prefix(p: &Prefix) -> Self {
        let care = if p.is_empty() {
            0
        } else {
            u32::MAX << (32 - u32::from(p.len()))
        };
        WildcardMask {
            addr: p.bits(),
            wildcard: !care,
        }
    }

    /// Does this matcher accept `ip`?
    pub fn matches(&self, ip: Ipv4Addr) -> bool {
        (u32::from(ip) ^ self.addr) & !self.wildcard == 0
    }

    /// If the wildcard is contiguous (a proper inverted netmask), the
    /// equivalent prefix; `None` for non-contiguous wildcards.
    pub fn as_prefix(&self) -> Option<Prefix> {
        let care = !self.wildcard;
        let len = care.leading_ones() as u8;
        let contiguous = self.wildcard
            == if len == 0 {
                u32::MAX
            } else {
                !(u32::MAX << (32 - u32::from(len)))
            }
            || (len == 32 && self.wildcard == 0);
        if contiguous {
            Some(Prefix::new(Ipv4Addr::from(self.addr), len))
        } else {
            None
        }
    }

    /// Decompose the matched set into prefixes.
    ///
    /// A contiguous mask yields its single prefix. A non-contiguous mask
    /// matches a union of `2^k` prefixes, where `k` counts the wildcard
    /// bits above the trailing wildcard run: each assignment of those bits
    /// pins one prefix. When that enumeration would exceed `max`, the
    /// result degrades to the smallest single prefix covering the whole
    /// set (the leading fixed bits) — a sound over-approximation for
    /// consumers that only need a covering universe.
    pub fn cover_prefixes(&self, max: usize) -> Vec<Prefix> {
        if let Some(p) = self.as_prefix() {
            return vec![p];
        }
        // Trailing wildcard bits fold into the prefix length; every
        // wildcard bit above them must be enumerated.
        // Non-contiguous, so 0 < wildcard and trailing_ones < 32.
        let trailing = self.wildcard.trailing_ones();
        let len = (32 - trailing) as u8;
        let high_wild = self.wildcard & !((1u32 << trailing) - 1);
        let k = high_wild.count_ones();
        if k >= usize::BITS || (1usize << k) > max {
            let cover_len = self.wildcard.leading_zeros();
            let cover_mask = if cover_len == 0 {
                0
            } else {
                u32::MAX << (32 - cover_len)
            };
            return vec![Prefix::new(
                Ipv4Addr::from(self.addr & cover_mask),
                cover_len as u8,
            )];
        }
        // Spread each counter value over the enumerated wildcard bit
        // positions (LSB of the counter → lowest enumerated bit).
        let positions: Vec<u32> = (0..32).filter(|b| high_wild & (1 << b) != 0).collect();
        (0..1u32 << k)
            .map(|combo| {
                let mut addr = self.addr;
                for (j, &pos) in positions.iter().enumerate() {
                    if combo & (1 << j) != 0 {
                        addr |= 1 << pos;
                    }
                }
                Prefix::new(Ipv4Addr::from(addr), len)
            })
            .collect()
    }
}

impl fmt::Display for WildcardMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}",
            Ipv4Addr::from(self.addr),
            Ipv4Addr::from(self.wildcard)
        )
    }
}
