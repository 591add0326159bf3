//! Data-plane flow descriptions used by ACL matching.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::prefix::ParseNetError;

/// An IP protocol selector for ACL rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IpProtocol {
    /// Matches every protocol (Cisco `ip`, Juniper no `protocol` clause).
    Any,
    /// TCP (protocol 6).
    Tcp,
    /// UDP (protocol 17).
    Udp,
    /// ICMP (protocol 1).
    Icmp,
    /// Any other protocol, by number.
    Other(u8),
}

impl IpProtocol {
    /// Protocol number, or `None` for [`IpProtocol::Any`].
    pub fn number(&self) -> Option<u8> {
        match self {
            IpProtocol::Any => None,
            IpProtocol::Tcp => Some(6),
            IpProtocol::Udp => Some(17),
            IpProtocol::Icmp => Some(1),
            IpProtocol::Other(n) => Some(*n),
        }
    }

    /// Canonicalize a protocol number into a named variant when one exists.
    pub fn from_number(n: u8) -> Self {
        match n {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }

    /// Does this selector match a concrete protocol number?
    pub fn matches(&self, number: u8) -> bool {
        match self.number() {
            None => true,
            Some(n) => n == number,
        }
    }

    /// Whether rules with this selector may carry port qualifiers.
    pub fn has_ports(&self) -> bool {
        matches!(self, IpProtocol::Tcp | IpProtocol::Udp)
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Any => write!(f, "ip"),
            IpProtocol::Tcp => write!(f, "tcp"),
            IpProtocol::Udp => write!(f, "udp"),
            IpProtocol::Icmp => write!(f, "icmp"),
            IpProtocol::Other(n) => write!(f, "proto-{n}"),
        }
    }
}

impl FromStr for IpProtocol {
    type Err = ParseNetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "ip" | "any" | "inet" => IpProtocol::Any,
            "tcp" => IpProtocol::Tcp,
            "udp" => IpProtocol::Udp,
            "icmp" => IpProtocol::Icmp,
            other => IpProtocol::Other(
                other
                    .parse()
                    .map_err(|_| ParseNetError::new(format!("unknown IP protocol {other:?}")))?,
            ),
        })
    }
}

/// The port of a well-known service name, as ACLs and firewall filters
/// may write it in place of a number (`eq www`, `destination-port ssh`).
pub fn service_port(name: &str) -> Option<u16> {
    Some(match name {
        "ftp-data" => 20,
        "ftp" => 21,
        "ssh" => 22,
        "telnet" => 23,
        "smtp" => 25,
        "domain" => 53,
        "tftp" => 69,
        "www" | "http" => 80,
        "pop3" => 110,
        "ntp" => 123,
        "snmp" => 161,
        "bgp" => 179,
        "https" => 443,
        "syslog" => 514,
        _ => return None,
    })
}

/// An inclusive TCP/UDP port interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortRange {
    /// Lowest port, inclusive.
    pub lo: u16,
    /// Highest port, inclusive.
    pub hi: u16,
}

impl PortRange {
    /// The full port space `0-65535`.
    pub const ANY: PortRange = PortRange {
        lo: 0,
        hi: u16::MAX,
    };

    /// Construct an interval.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(lo: u16, hi: u16) -> Self {
        assert!(lo <= hi, "empty port range {lo}-{hi}");
        PortRange { lo, hi }
    }

    /// A single port.
    pub fn exact(port: u16) -> Self {
        PortRange { lo: port, hi: port }
    }

    /// Does the interval include `port`?
    pub fn contains(&self, port: u16) -> bool {
        self.lo <= port && port <= self.hi
    }

    /// Is this the unconstrained interval?
    pub fn is_any(&self) -> bool {
        *self == PortRange::ANY
    }
}

impl fmt::Display for PortRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            write!(f, "any")
        } else if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}-{}", self.lo, self.hi)
        }
    }
}

/// A concrete data-plane packet as far as ACLs are concerned: the classic
/// 5-tuple. Used by the concrete ACL interpreter that differential tests run
/// against the symbolic encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flow {
    /// Source address.
    pub src_ip: Ipv4Addr,
    /// Destination address.
    pub dst_ip: Ipv4Addr,
    /// IP protocol number.
    pub protocol: u8,
    /// Source port (meaningful for TCP/UDP only; zero otherwise).
    pub src_port: u16,
    /// Destination port (meaningful for TCP/UDP only; zero otherwise).
    pub dst_port: u16,
}

impl Flow {
    /// A TCP flow.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        Flow {
            src_ip,
            dst_ip,
            protocol: 6,
            src_port,
            dst_port,
        }
    }

    /// A UDP flow.
    pub fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        Flow {
            src_ip,
            dst_ip,
            protocol: 17,
            src_port,
            dst_port,
        }
    }

    /// An ICMP flow (ports zero).
    pub fn icmp(src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Self {
        Flow {
            src_ip,
            dst_ip,
            protocol: 1,
            src_port: 0,
            dst_port: 0,
        }
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            IpProtocol::from_number(self.protocol),
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port
        )
    }
}
