//! Long-format sensor observations — the Bronze contract.
//!
//! One [`Observation`] row encapsulates an individual sensor reading
//! exactly as §V-A of the paper describes the "Bronze" stage: tabular
//! long format, one row per (timestamp, component, sensor, value).
//!
//! This module also holds the Bronze wire format: the first decoder of
//! bytes that arrive from a producer. Decoding is total — a malformed
//! record or batch yields `None`, never a panic — and a batch's declared
//! count is checked against its length before anything is allocated for
//! it. [`Observation::batch`] walks a batch's records in place, so a
//! consumer can decode straight into its own layout.

#![deny(clippy::indexing_slicing, clippy::unwrap_used)]

/// A device within a node (or the node/system itself) that a sensor is
/// attached to.
///
/// The compact representation (node index + device) keeps an
/// [`Observation`] small enough for multi-million-row batches; the
/// cabinet is derivable from the node index via
/// [`crate::system::SystemModel::cabinet_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    /// The node itself (aggregate sensors such as total node power).
    Node,
    /// A CPU socket, by index within the node.
    Cpu(u8),
    /// A GPU (or GCD on dual-die parts), by index within the node.
    Gpu(u8),
    /// A network interface, by index within the node.
    Nic(u8),
    /// A power supply feeding the node or its chassis.
    Psu(u8),
    /// A cooling loop element (cold plate / rectifier loop) of a cabinet.
    CoolingLoop(u8),
    /// Facility-level components (cooling plant, substation); node index
    /// is 0 for these.
    Facility,
}

impl Device {
    /// Stable numeric code used by the binary encoding.
    pub fn code(self) -> u16 {
        match self {
            Device::Node => 0,
            Device::Cpu(i) => 0x100 | u16::from(i),
            Device::Gpu(i) => 0x200 | u16::from(i),
            Device::Nic(i) => 0x300 | u16::from(i),
            Device::Psu(i) => 0x400 | u16::from(i),
            Device::CoolingLoop(i) => 0x500 | u16::from(i),
            Device::Facility => 0x600,
        }
    }

    /// Inverse of [`Device::code`]. Returns `None` for unknown codes.
    pub fn from_code(code: u16) -> Option<Device> {
        let idx = (code & 0xff) as u8;
        match code & 0xff00 {
            0x000 if code == 0 => Some(Device::Node),
            0x100 => Some(Device::Cpu(idx)),
            0x200 => Some(Device::Gpu(idx)),
            0x300 => Some(Device::Nic(idx)),
            0x400 => Some(Device::Psu(idx)),
            0x500 => Some(Device::CoolingLoop(idx)),
            0x600 if idx == 0 => Some(Device::Facility),
            _ => None,
        }
    }
}

/// Physical location of a sensor: global node index plus device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Component {
    /// Global node index within the system (0-based).
    pub node: u32,
    /// Device within the node.
    pub device: Device,
}

impl Component {
    /// Component for a node-level sensor.
    pub fn node(node: u32) -> Self {
        Component {
            node,
            device: Device::Node,
        }
    }

    /// Component for a GPU-level sensor.
    pub fn gpu(node: u32, gpu: u8) -> Self {
        Component {
            node,
            device: Device::Gpu(gpu),
        }
    }
}

/// Data-quality flag attached at collection time.
///
/// The paper (§VIII-A) calls out that ODA data is "streamed, skewed, and
/// lossy"; dropouts surface as [`Quality::Missing`] rows (value = NaN)
/// and out-of-range excursions as [`Quality::Suspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quality {
    /// Reading is believed valid.
    Good,
    /// The sample was lost; `value` is NaN.
    Missing,
    /// The sample arrived but failed a plausibility check.
    Suspect,
}

impl Quality {
    fn code(self) -> u8 {
        match self {
            Quality::Good => 0,
            Quality::Missing => 1,
            Quality::Suspect => 2,
        }
    }

    fn from_code(c: u8) -> Option<Quality> {
        match c {
            0 => Some(Quality::Good),
            1 => Some(Quality::Missing),
            2 => Some(Quality::Suspect),
            _ => None,
        }
    }
}

/// One long-format sensor observation (a Bronze row).
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// Milliseconds since the (simulated) epoch.
    pub ts_ms: i64,
    /// Sensor identifier, resolvable via [`crate::sensors::SensorCatalog`].
    pub sensor: u16,
    /// Where the sensor lives.
    pub component: Component,
    /// The reading (NaN when `quality == Missing`).
    pub value: f64,
    /// Collection-time quality flag.
    pub quality: Quality,
}

impl PartialEq for Observation {
    /// Bitwise equality on `value`, so that `Missing` rows (value = NaN)
    /// compare equal to themselves — required for replay/determinism
    /// assertions across the workspace.
    fn eq(&self, other: &Self) -> bool {
        self.ts_ms == other.ts_ms
            && self.sensor == other.sensor
            && self.component == other.component
            && self.value.to_bits() == other.value.to_bits()
            && self.quality == other.quality
    }
}

impl Eq for Observation {}

/// Size in bytes of the fixed binary encoding produced by
/// [`Observation::encode_into`].
pub const OBS_WIRE_BYTES: usize = 8 + 2 + 4 + 2 + 8 + 1;

/// Nominal size in bytes of one observation in the *raw* collection
/// format upstream of the broker (a JSON-ish long-format record with
/// string timestamps and component paths, as emitted by real collection
/// agents). Used by [`crate::rates`] for Fig. 4-a volume accounting.
pub const OBS_RAW_BYTES: usize = 120;

impl Observation {
    /// Append the fixed-width binary encoding to `buf`, in one append.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let mut wire = [0; OBS_WIRE_BYTES];
        wire[0..8].copy_from_slice(&self.ts_ms.to_le_bytes());
        wire[8..10].copy_from_slice(&self.sensor.to_le_bytes());
        wire[10..14].copy_from_slice(&self.component.node.to_le_bytes());
        wire[14..16].copy_from_slice(&self.component.device.code().to_le_bytes());
        wire[16..24].copy_from_slice(&self.value.to_le_bytes());
        wire[24] = self.quality.code();
        buf.extend_from_slice(&wire);
    }

    /// Decode one observation from the start of `buf`.
    ///
    /// Returns the observation and the number of bytes consumed, or
    /// `None` if `buf` is too short or malformed.
    pub fn decode(buf: &[u8]) -> Option<(Observation, usize)> {
        let wire = buf.first_chunk::<OBS_WIRE_BYTES>()?;
        Some((Observation::from_wire(wire)?, OBS_WIRE_BYTES))
    }

    /// Decode one fixed-width record; `None` for an unknown device or
    /// quality code.
    fn from_wire(wire: &[u8; OBS_WIRE_BYTES]) -> Option<Observation> {
        let (ts_ms, rest) = wire.split_first_chunk::<8>()?;
        let (sensor, rest) = rest.split_first_chunk::<2>()?;
        let (node, rest) = rest.split_first_chunk::<4>()?;
        let (device, rest) = rest.split_first_chunk::<2>()?;
        let (value, rest) = rest.split_first_chunk::<8>()?;
        Some(Observation {
            ts_ms: i64::from_le_bytes(*ts_ms),
            sensor: u16::from_le_bytes(*sensor),
            component: Component {
                node: u32::from_le_bytes(*node),
                device: Device::from_code(u16::from_le_bytes(*device))?,
            },
            value: f64::from_le_bytes(*value),
            quality: Quality::from_code(*rest.first()?)?,
        })
    }

    /// Encode a batch into a single buffer (length-prefixed by count).
    pub fn encode_batch(batch: &[Observation]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4 + batch.len() * OBS_WIRE_BYTES);
        buf.extend_from_slice(&(batch.len() as u32).to_le_bytes());
        for obs in batch {
            obs.encode_into(&mut buf);
        }
        buf
    }

    /// The records of a batch produced by [`Observation::encode_batch`],
    /// decoded one at a time as the iterator is walked (`None` items are
    /// malformed records). Returns `None` unless the declared count
    /// accounts for exactly the bytes that follow it, so a forged count
    /// is refused before any caller sizes anything by it.
    pub fn batch(buf: &[u8]) -> Option<impl ExactSizeIterator<Item = Option<Observation>> + '_> {
        let (count, body) = buf.split_first_chunk::<4>()?;
        let count = usize::try_from(u32::from_le_bytes(*count)).ok()?;
        if count.checked_mul(OBS_WIRE_BYTES)? != body.len() {
            return None;
        }
        let (records, _) = body.as_chunks::<OBS_WIRE_BYTES>();
        Some(records.iter().map(Observation::from_wire))
    }

    /// Decode a batch produced by [`Observation::encode_batch`].
    pub fn decode_batch(buf: &[u8]) -> Option<Vec<Observation>> {
        let records = Observation::batch(buf)?;
        let mut out = Vec::with_capacity(records.len());
        for obs in records {
            out.push(obs?);
        }
        Some(out)
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing, clippy::unwrap_used)]
mod tests {
    use super::*;

    fn sample() -> Observation {
        Observation {
            ts_ms: 1_700_000_123_456,
            sensor: 42,
            component: Component::gpu(9_407, 7),
            value: 512.25,
            quality: Quality::Good,
        }
    }

    #[test]
    fn device_code_roundtrip() {
        let devices = [
            Device::Node,
            Device::Cpu(3),
            Device::Gpu(7),
            Device::Nic(1),
            Device::Psu(0),
            Device::CoolingLoop(2),
            Device::Facility,
        ];
        for d in devices {
            assert_eq!(Device::from_code(d.code()), Some(d), "{d:?}");
        }
    }

    #[test]
    fn device_code_rejects_garbage() {
        assert_eq!(Device::from_code(0x700), None);
        assert_eq!(Device::from_code(0x601), None);
        assert_eq!(Device::from_code(0x0042), None);
    }

    #[test]
    fn observation_roundtrip() {
        let obs = sample();
        let mut buf = Vec::new();
        obs.encode_into(&mut buf);
        assert_eq!(buf.len(), OBS_WIRE_BYTES);
        let (decoded, used) = Observation::decode(&buf).unwrap();
        assert_eq!(used, OBS_WIRE_BYTES);
        assert_eq!(decoded, obs);
    }

    #[test]
    fn observation_decode_short_buffer() {
        let obs = sample();
        let mut buf = Vec::new();
        obs.encode_into(&mut buf);
        assert!(Observation::decode(&buf[..buf.len() - 1]).is_none());
    }

    #[test]
    fn batch_roundtrip() {
        let batch: Vec<Observation> = (0..100)
            .map(|i| Observation {
                ts_ms: 1_000 * i,
                sensor: (i % 7) as u16,
                component: Component::node(i as u32),
                value: i as f64 * 0.5,
                quality: if i % 10 == 0 {
                    Quality::Missing
                } else {
                    Quality::Good
                },
            })
            .collect();
        let buf = Observation::encode_batch(&batch);
        let decoded = Observation::decode_batch(&buf).unwrap();
        assert_eq!(decoded, batch);
    }

    #[test]
    fn batch_rejects_trailing_garbage() {
        let batch = vec![sample()];
        let mut buf = Observation::encode_batch(&batch);
        buf.push(0xff);
        assert!(Observation::decode_batch(&buf).is_none());
    }

    /// A forged count is refused before anything is reserved for it: a
    /// 29-byte record claiming `u32::MAX` observations once asked the
    /// allocator for 137 GB and aborted the process.
    #[test]
    fn forged_batch_counts_are_rejected() {
        let batch = vec![sample(), sample()];
        let honest = Observation::encode_batch(&batch);
        for forged in [u32::MAX, 3, 1] {
            let mut buf = honest.clone();
            buf[..4].copy_from_slice(&forged.to_le_bytes());
            assert!(Observation::decode_batch(&buf).is_none(), "count {forged}");
            assert!(Observation::batch(&buf).is_none(), "count {forged}");
        }
        let mut tiny = vec![0xff; 4];
        tiny.extend_from_slice(&[0; 25]);
        assert!(Observation::decode_batch(&tiny).is_none());
        assert!(Observation::decode_batch(&[0, 0, 0]).is_none());
    }

    #[test]
    fn batch_with_a_bad_record_is_rejected() {
        let mut buf = Observation::encode_batch(&[sample(), sample()]);
        // The second record's quality byte.
        buf[4 + 2 * OBS_WIRE_BYTES - 1] = 7;
        assert!(Observation::decode_batch(&buf).is_none());
        let items: Vec<_> = Observation::batch(&buf).unwrap().collect();
        assert_eq!(items, vec![Some(sample()), None]);
    }

    #[test]
    fn empty_batch_roundtrip() {
        let buf = Observation::encode_batch(&[]);
        assert_eq!(
            Observation::decode_batch(&buf).unwrap(),
            Vec::<Observation>::new()
        );
    }
}
