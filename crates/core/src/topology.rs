//! Topology-as-data: the [`CellTopology`] abstraction.
//!
//! Every experiment in this crate — write, read, `WL_crit`, Monte-Carlo,
//! the array engine — needs the same facts about a cell: which ports it
//! exposes, which transistor plays which [`Role`] (so process variation and
//! β-sizing bind to the right device), how its access transistors are
//! oriented, and whether it has a decoupled read port. Historically those
//! facts were hard-coded against the built-in generators in [`crate::cell`];
//! a cell that existed only as a SPICE `.subckt` could not run any
//! experiment.
//!
//! [`CellTopology`] reifies them as data. It is constructed either
//!
//! * from a built-in [`CellKind`] ([`CellTopology::builtin`]) — placement
//!   delegates to [`build_cell_on_lines`], so every number produced through
//!   a builtin topology is bit-identical to the historical path; or
//! * from a parsed [`Subckt`] ([`CellTopology::from_subckt`]) — the port
//!   list is canonicalized, every device is classified into a [`Role`] by
//!   its connectivity, and the access configuration is inferred from the
//!   access transistors' polarity and orientation. A 7T/9T-style cell whose
//!   extra devices hang off dedicated `rbl`/`rwl` ports is recognized as a
//!   read-port topology and runs the decoupled-read experiment.
//!
//! # The port contract for imported cells
//!
//! A `.subckt` must expose (case-insensitively) the seven core ports
//! `q qb bl blb wl vdd vss`, plus the optional pair `rbl rwl` for a
//! decoupled read port. Exactly one device must match each core role:
//!
//! | Role        | gate | channel touches |
//! |-------------|------|-----------------|
//! | pull-up L   | `qb` | `q` and `vdd`   |
//! | pull-down L | `qb` | `q` and `vss`   |
//! | pull-up R   | `q`  | `qb` and `vdd`  |
//! | pull-down R | `q`  | `qb` and `vss`  |
//! | access L    | `wl` | `bl` and `q`    |
//! | access R    | `wl` | `blb` and `qb`  |
//!
//! Every other device is a [`Role::ReadBuffer`] auxiliary (read stacks,
//! keepers); auxiliaries keep their deck orientation and bind the access
//! width. Capacitors from `q`/`qb` to ground are *absorbed*: storage-node
//! parasitics always come from [`CellParams::c_node`], so an imported cell
//! sees exactly the same parasitic model as a generated one. All other
//! resistors and capacitors are kept verbatim.
//!
//! # Width and variation binding
//!
//! Devices never keep their deck widths or models: placement and
//! [`bind_devices`](CellTopology::bind_devices) derive both from
//! [`CellParams`] by role (pull-ups bind `w_pullup_um`, pull-downs
//! `β·w_access_um`, access and auxiliaries `w_access_um`), which is what
//! lets one compiled experiment sweep β and Monte-Carlo variations on an
//! imported cell exactly as on a generated one.

use crate::cell::{build_cell_on_lines, CellLines, CellNodes};
use crate::error::SramError;
use crate::tech::{AccessConfig, CellKind, CellParams, Role};
use std::collections::HashMap;
use std::sync::Arc;
use tfet_circuit::spice::FlatDevice;
use tfet_circuit::{Circuit, CompiledCircuit, NodeId, Subckt, SubcktCard};
use tfet_devices::{DeviceModel, Polarity};

/// One transistor slot of a topology: its instance name, its electrical
/// [`Role`] (which selects the variation stream and the width rule), its
/// polarity, and its index in the placed circuit's device vector (the
/// stamp order, which is also the bind order).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSlot {
    /// Instance name (builder name for builtin cells, deck name for
    /// imported ones).
    pub name: String,
    /// Electrical role — keys the per-device process variation and the
    /// width rule.
    pub role: Role,
    /// Whether the device is n-type.
    pub n_type: bool,
    /// Device index in stamp order (the index
    /// [`CompiledCircuit::bind_device`] expects).
    pub index: usize,
}

/// A canonical node reference inside an imported cell: one of the contract
/// ports, global ground, or a cell-internal node.
#[derive(Debug, Clone, PartialEq, Eq)]
enum NodeRef {
    Q,
    Qb,
    Bl,
    Blb,
    Wl,
    Vdd,
    Vss,
    Rbl,
    Rwl,
    Gnd,
    Internal(String),
}

/// A device of an imported cell with its terminals resolved to canonical
/// references. Stored in slot order; the instance name lives on the
/// matching [`DeviceSlot`].
#[derive(Debug, Clone, PartialEq)]
struct DeckDevice {
    d: NodeRef,
    g: NodeRef,
    s: NodeRef,
}

/// A kept (non-absorbed) resistor or capacitor of an imported cell.
#[derive(Debug, Clone, PartialEq)]
struct DeckTwoTerminal {
    a: NodeRef,
    b: NodeRef,
    value: f64,
}

/// The placement recipe of an imported cell.
#[derive(Debug, Clone, PartialEq)]
struct DeckCell {
    /// The original definition (kept for re-export).
    subckt: Subckt,
    /// Devices in slot order (core roles first, auxiliaries after).
    devices: Vec<DeckDevice>,
    /// Extra resistors, in deck order.
    resistors: Vec<DeckTwoTerminal>,
    /// Extra capacitors (storage-node caps absorbed), in deck order.
    capacitors: Vec<DeckTwoTerminal>,
}

/// Where a topology came from — and therefore how it places.
#[derive(Debug, Clone, PartialEq)]
enum TopoSource {
    /// A built-in generator; placement delegates to [`crate::cell`].
    Builtin(CellKind),
    /// An imported `.subckt`; placement stamps the classified recipe.
    Deck(Box<DeckCell>),
}

/// A cell topology as data: ports, device slots with roles, access
/// orientation, read-port flag. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTopology {
    source: TopoSource,
    name: String,
    access: AccessConfig,
    has_read_port: bool,
    slots: Vec<DeviceSlot>,
}

/// A cell placed into a circuit: its contract nodes plus any cell-internal
/// nodes an imported topology created (read-stack midpoints and the like —
/// an array partition must watch these too).
#[derive(Debug, Clone)]
pub struct PlacedCell {
    /// The contract nodes.
    pub nodes: CellNodes,
    /// Cell-internal nodes beyond `q`/`qb` (always empty for builtin
    /// topologies).
    pub internal: Vec<NodeId>,
}

impl CellTopology {
    /// The topology of a built-in cell kind. Placement and binding through
    /// this value are bit-identical to the historical
    /// [`build_cell`](crate::cell::build_cell) path.
    pub fn builtin(kind: CellKind) -> Self {
        let n_access = !kind.access().is_p_type();
        let mut specs = vec![
            ("MPU_L", Role::PullUpLeft, false),
            ("MPD_L", Role::PullDownLeft, true),
            ("MPU_R", Role::PullUpRight, false),
            ("MPD_R", Role::PullDownRight, true),
            ("MAL", Role::AccessLeft, n_access),
            ("MAR", Role::AccessRight, n_access),
        ];
        let has_read_port = kind == CellKind::Tfet7T;
        if has_read_port {
            specs.push(("MRD", Role::ReadBuffer, true));
        }
        let slots = specs
            .into_iter()
            .enumerate()
            .map(|(index, (name, role, n_type))| DeviceSlot {
                name: name.to_string(),
                role,
                n_type,
                index,
            })
            .collect();
        CellTopology {
            source: TopoSource::Builtin(kind),
            name: format!("{kind:?}"),
            access: kind.access(),
            has_read_port,
            slots,
        }
    }

    /// Builds a topology from a parsed `.subckt` definition. `all` resolves
    /// nested subcircuit calls; `models` resolves device model names to
    /// polarities (use [`tfet_devices::standard_models`]).
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidParameter`] when the port contract is violated,
    /// a core role is missing or duplicated, a model name is unknown, or
    /// the two access devices disagree on polarity/orientation;
    /// [`SramError::Sim`] when flattening fails (unknown or recursive
    /// subcircuit).
    pub fn from_subckt(
        sub: &Subckt,
        all: &[Subckt],
        models: &HashMap<String, Arc<dyn DeviceModel>>,
    ) -> Result<Self, SramError> {
        let flat = sub.flatten(all)?;
        let bad =
            |msg: String| SramError::InvalidParameter(format!("subckt `{}`: {msg}", sub.name));

        // Canonicalize the port list.
        let mut port_map: HashMap<String, NodeRef> = HashMap::new();
        for port in &sub.ports {
            let canon = match port.to_ascii_lowercase().as_str() {
                "q" => NodeRef::Q,
                "qb" => NodeRef::Qb,
                "bl" => NodeRef::Bl,
                "blb" => NodeRef::Blb,
                "wl" => NodeRef::Wl,
                "vdd" => NodeRef::Vdd,
                "vss" => NodeRef::Vss,
                "rbl" => NodeRef::Rbl,
                "rwl" => NodeRef::Rwl,
                other => {
                    return Err(bad(format!(
                        "port `{other}` is not in the cell port contract \
                         (q qb bl blb wl vdd vss [rbl rwl])"
                    )))
                }
            };
            if port_map.values().any(|v| *v == canon) {
                return Err(bad(format!("duplicate port `{port}`")));
            }
            port_map.insert(port.clone(), canon);
        }
        for required in ["q", "qb", "bl", "blb", "wl", "vdd", "vss"] {
            if !sub.ports.iter().any(|p| p.eq_ignore_ascii_case(required)) {
                return Err(bad(format!("missing required port `{required}`")));
            }
        }
        let has_rbl = sub.ports.iter().any(|p| p.eq_ignore_ascii_case("rbl"));
        let has_rwl = sub.ports.iter().any(|p| p.eq_ignore_ascii_case("rwl"));
        if has_rbl != has_rwl {
            return Err(bad("ports rbl and rwl must be declared together".into()));
        }
        let has_read_port = has_rbl && has_rwl;

        let noderef = |n: &str| -> NodeRef {
            if n == "0" || n.eq_ignore_ascii_case("gnd") {
                NodeRef::Gnd
            } else if let Some(r) = port_map.get(n) {
                r.clone()
            } else {
                NodeRef::Internal(n.to_string())
            }
        };

        // Classify every device into a role by connectivity.
        let core_role = |d: &FlatDevice| -> Option<Role> {
            let dr = noderef(&d.d);
            let g = noderef(&d.g);
            let sr = noderef(&d.s);
            let touches = |r: NodeRef| dr == r || sr == r;
            if g == NodeRef::Qb && touches(NodeRef::Q) && touches(NodeRef::Vdd) {
                Some(Role::PullUpLeft)
            } else if g == NodeRef::Qb && touches(NodeRef::Q) && touches(NodeRef::Vss) {
                Some(Role::PullDownLeft)
            } else if g == NodeRef::Q && touches(NodeRef::Qb) && touches(NodeRef::Vdd) {
                Some(Role::PullUpRight)
            } else if g == NodeRef::Q && touches(NodeRef::Qb) && touches(NodeRef::Vss) {
                Some(Role::PullDownRight)
            } else if g == NodeRef::Wl && touches(NodeRef::Bl) && touches(NodeRef::Q) {
                Some(Role::AccessLeft)
            } else if g == NodeRef::Wl && touches(NodeRef::Blb) && touches(NodeRef::Qb) {
                Some(Role::AccessRight)
            } else {
                None
            }
        };

        const CORE: [Role; 6] = [
            Role::PullUpLeft,
            Role::PullDownLeft,
            Role::PullUpRight,
            Role::PullDownRight,
            Role::AccessLeft,
            Role::AccessRight,
        ];
        let mut by_role: HashMap<Role, Vec<usize>> = HashMap::new();
        let mut auxiliaries: Vec<usize> = Vec::new();
        for (k, dev) in flat.devices.iter().enumerate() {
            match core_role(dev) {
                Some(role) => by_role.entry(role).or_default().push(k),
                None => auxiliaries.push(k),
            }
        }
        let mut ordered: Vec<(usize, Role)> = Vec::with_capacity(flat.devices.len());
        for role in CORE {
            match by_role.get(&role).map(Vec::as_slice) {
                Some([k]) => ordered.push((*k, role)),
                Some(many) => {
                    let names: Vec<&str> = many
                        .iter()
                        .map(|&k| flat.devices[k].name.as_str())
                        .collect();
                    return Err(bad(format!(
                        "{} devices match role {role:?}: {names:?}",
                        many.len()
                    )));
                }
                None => return Err(bad(format!("no device matches role {role:?}"))),
            }
        }
        ordered.extend(auxiliaries.iter().map(|&k| (k, Role::ReadBuffer)));

        // Polarity from the model registry.
        let polarity = |k: usize| -> Result<bool, SramError> {
            let dev = &flat.devices[k];
            let model = models.get(&dev.model).ok_or_else(|| {
                bad(format!(
                    "unknown model `{}` on device `{}`",
                    dev.model, dev.name
                ))
            })?;
            Ok(model.polarity() == Polarity::N)
        };

        // Access configuration from the access transistors' polarity and
        // bitline terminal (see the orientation table in `crate::cell`).
        let access_of = |k: usize, bitline: NodeRef| -> Result<AccessConfig, SramError> {
            let dev = &flat.devices[k];
            let n = polarity(k)?;
            let at_drain = noderef(&dev.d) == bitline;
            Ok(match (n, at_drain) {
                (true, true) => AccessConfig::InwardN,
                (true, false) => AccessConfig::OutwardN,
                (false, false) => AccessConfig::InwardP,
                (false, true) => AccessConfig::OutwardP,
            })
        };
        let (al, _) = ordered[4];
        let (ar, _) = ordered[5];
        let access = access_of(al, NodeRef::Bl)?;
        let access_r = access_of(ar, NodeRef::Blb)?;
        if access != access_r {
            return Err(bad(format!(
                "access devices disagree: left is {access:?}, right is {access_r:?}"
            )));
        }

        let mut slots = Vec::with_capacity(ordered.len());
        let mut devices = Vec::with_capacity(ordered.len());
        for (index, &(k, role)) in ordered.iter().enumerate() {
            let dev = &flat.devices[k];
            slots.push(DeviceSlot {
                name: dev.name.clone(),
                role,
                n_type: polarity(k)?,
                index,
            });
            devices.push(DeckDevice {
                d: noderef(&dev.d),
                g: noderef(&dev.g),
                s: noderef(&dev.s),
            });
        }

        // Absorb storage-node parasitics; keep everything else.
        let is_storage_cap = |a: &NodeRef, b: &NodeRef| {
            let pair = |x: &NodeRef, y: &NodeRef| {
                (*x == NodeRef::Q || *x == NodeRef::Qb) && *y == NodeRef::Gnd
            };
            pair(a, b) || pair(b, a)
        };
        let two_terminal = |t: &tfet_circuit::spice::FlatTwoTerminal| DeckTwoTerminal {
            a: noderef(&t.a),
            b: noderef(&t.b),
            value: t.value,
        };
        let resistors: Vec<DeckTwoTerminal> = flat.resistors.iter().map(two_terminal).collect();
        let capacitors: Vec<DeckTwoTerminal> = flat
            .capacitors
            .iter()
            .map(two_terminal)
            .filter(|c| !is_storage_cap(&c.a, &c.b))
            .collect();

        Ok(CellTopology {
            source: TopoSource::Deck(Box::new(DeckCell {
                subckt: sub.clone(),
                devices,
                resistors,
                capacitors,
            })),
            name: sub.name.clone(),
            access,
            has_read_port,
            slots,
        })
    }

    /// The topology's name: the `CellKind` debug form for builtin cells,
    /// the `.subckt` name for imported ones.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The built-in kind, if this topology came from one.
    pub fn kind(&self) -> Option<CellKind> {
        match self.source {
            TopoSource::Builtin(kind) => Some(kind),
            TopoSource::Deck(_) => None,
        }
    }

    /// The access-transistor configuration (orientation × polarity).
    pub fn access(&self) -> AccessConfig {
        self.access
    }

    /// Whether the cell has a decoupled read port (`rbl`/`rwl`).
    pub fn has_read_port(&self) -> bool {
        self.has_read_port
    }

    /// Whether the write bitlines idle at 0 V instead of V_DD. True for
    /// read-port cells with outward access (the 7T trick: dedicated write
    /// bitlines held low avoid reverse-bias leakage through the outward
    /// access devices); all other cells clamp their bitlines high in
    /// standby.
    pub fn bl_idle_low(&self) -> bool {
        self.has_read_port && !self.access.is_inward()
    }

    /// The device slots, in stamp/bind order.
    pub fn slots(&self) -> &[DeviceSlot] {
        &self.slots
    }

    /// Number of transistors in the cell.
    pub fn device_count(&self) -> usize {
        self.slots.len()
    }

    /// The width rule for a role, µm.
    fn width_for(&self, role: Role, params: &CellParams) -> f64 {
        match role {
            Role::PullUpLeft | Role::PullUpRight => params.sizing.w_pullup_um,
            Role::PullDownLeft | Role::PullDownRight => params.sizing.w_pulldown_um(),
            Role::AccessLeft | Role::AccessRight | Role::ReadBuffer => params.sizing.w_access_um,
        }
    }

    /// Places the cell into `c` with fresh (unshared) lines and no prefix —
    /// the single-cell experiment form.
    pub fn place(&self, c: &mut Circuit, params: &CellParams) -> PlacedCell {
        self.place_named(c, params, "")
    }

    /// Places the cell with every node and instance name prefixed, creating
    /// its own line nodes.
    pub fn place_named(&self, c: &mut Circuit, params: &CellParams, prefix: &str) -> PlacedCell {
        let name = |n: &str| format!("{prefix}{n}");
        let lines = CellLines {
            bl: c.node(&name("bl")),
            blb: c.node(&name("blb")),
            wl: c.node(&name("wl")),
            vdd: c.node(&name("vdd_cell")),
            vss: c.node(&name("vss_cell")),
            rbl: if self.has_read_port {
                Some(c.node(&name("rbl")))
            } else {
                None
            },
            rwl: if self.has_read_port {
                Some(c.node(&name("rwl")))
            } else {
                None
            },
        };
        self.place_on_lines(c, params, prefix, &lines)
    }

    /// Places the cell on the given (possibly shared) lines — the array
    /// building block. Builtin topologies delegate to
    /// [`build_cell_on_lines`] and are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if a read-port cell is placed on lines without `rbl`/`rwl`.
    pub fn place_on_lines(
        &self,
        c: &mut Circuit,
        params: &CellParams,
        prefix: &str,
        lines: &CellLines,
    ) -> PlacedCell {
        match &self.source {
            TopoSource::Builtin(_) => PlacedCell {
                nodes: build_cell_on_lines(c, params, prefix, lines),
                internal: Vec::new(),
            },
            TopoSource::Deck(cell) => self.place_deck(cell, c, params, prefix, lines),
        }
    }

    /// Stamps an imported cell: storage nodes, then the core devices and
    /// storage caps in the builder's canonical order, then auxiliaries and
    /// kept extras. For a builder-exported 6T deck this reproduces the
    /// builder's circuit node-for-node and element-for-element.
    fn place_deck(
        &self,
        cell: &DeckCell,
        c: &mut Circuit,
        params: &CellParams,
        prefix: &str,
        lines: &CellLines,
    ) -> PlacedCell {
        let name = |n: &str| format!("{prefix}{n}");
        let q = c.node(&name("q"));
        let qb = c.node(&name("qb"));
        let mut internal: Vec<NodeId> = Vec::new();
        let mut interned: HashMap<String, NodeId> = HashMap::new();
        let mut resolve = |c: &mut Circuit, r: &NodeRef| -> NodeId {
            match r {
                NodeRef::Q => q,
                NodeRef::Qb => qb,
                NodeRef::Bl => lines.bl,
                NodeRef::Blb => lines.blb,
                NodeRef::Wl => lines.wl,
                NodeRef::Vdd => lines.vdd,
                NodeRef::Vss => lines.vss,
                NodeRef::Rbl => lines.rbl.expect("read-port cell requires an rbl line"),
                NodeRef::Rwl => lines.rwl.expect("read-port cell requires an rwl line"),
                NodeRef::Gnd => Circuit::GND,
                NodeRef::Internal(n) => {
                    if let Some(&id) = interned.get(n) {
                        id
                    } else {
                        let id = c.node(&name(n));
                        interned.insert(n.clone(), id);
                        internal.push(id);
                        id
                    }
                }
            }
        };

        for (k, slot) in self.slots.iter().enumerate() {
            if k == 4 {
                // Storage-node parasitics between the inverter pair and the
                // access devices — the builder's stamp order.
                c.capacitor(q, Circuit::GND, params.c_node);
                c.capacitor(qb, Circuit::GND, params.c_node);
            }
            let dev = &cell.devices[k];
            let d = resolve(c, &dev.d);
            let g = resolve(c, &dev.g);
            let s = resolve(c, &dev.s);
            c.transistor(
                &name(&slot.name),
                params.model(slot.role, slot.n_type),
                d,
                g,
                s,
                self.width_for(slot.role, params),
            );
        }
        for r in &cell.resistors {
            let a = resolve(c, &r.a);
            let b = resolve(c, &r.b);
            c.resistor(a, b, r.value);
        }
        for cap in &cell.capacitors {
            let a = resolve(c, &cap.a);
            let b = resolve(c, &cap.b);
            c.capacitor(a, b, cap.value);
        }

        let (rbl, rwl) = if self.has_read_port {
            (
                Some(lines.rbl.expect("read-port cell requires an rbl line")),
                Some(lines.rwl.expect("read-port cell requires an rwl line")),
            )
        } else {
            (None, None)
        };
        PlacedCell {
            nodes: CellNodes {
                q,
                qb,
                bl: lines.bl,
                blb: lines.blb,
                wl: lines.wl,
                vdd: lines.vdd,
                vss: lines.vss,
                rbl,
                rwl,
            },
            internal,
        }
    }

    /// Rebinds every device slot of a compiled single-cell experiment to
    /// the models and widths `params` implies, keyed by role. `base` is the
    /// device index the cell's first slot was stamped at (0 for single-cell
    /// experiments; a partition offset inside an array).
    pub fn bind_devices_at(
        &self,
        compiled: &mut CompiledCircuit,
        params: &CellParams,
        base: usize,
    ) {
        for slot in &self.slots {
            compiled.bind_device(
                base + slot.index,
                params.model(slot.role, slot.n_type),
                self.width_for(slot.role, params),
            );
        }
    }

    /// [`bind_devices_at`](Self::bind_devices_at) with the cell at device
    /// index 0 — the single-cell experiment form.
    pub fn bind_devices(&self, compiled: &mut CompiledCircuit, params: &CellParams) {
        self.bind_devices_at(compiled, params, 0);
    }

    /// Exports the cell as a `.subckt` definition with the canonical port
    /// list, sized by `params`. An imported topology returns its original
    /// definition (renamed); a builtin topology is built once in a scratch
    /// circuit and serialized. Round-trips through
    /// [`CellTopology::from_subckt`] to an equivalent topology.
    pub fn export_subckt(&self, params: &CellParams, name: &str) -> Subckt {
        if let TopoSource::Deck(cell) = &self.source {
            let mut sub = cell.subckt.clone();
            sub.name = name.to_string();
            return sub;
        }
        let mut scratch = Circuit::new();
        let _ = crate::cell::build_cell(&mut scratch, params);
        let canon = |id: NodeId| -> String {
            match scratch.node_name(id) {
                "vdd_cell" => "vdd".to_string(),
                "vss_cell" => "vss".to_string(),
                other => other.to_string(),
            }
        };
        let mut ports: Vec<String> = ["q", "qb", "bl", "blb", "wl", "vdd", "vss"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        if self.has_read_port {
            ports.push("rbl".to_string());
            ports.push("rwl".to_string());
        }
        let mut cards = Vec::new();
        for (k, t) in scratch.transistors().iter().enumerate() {
            if k == 4 {
                cards.push(SubcktCard::Capacitor {
                    name: "Q".to_string(),
                    a: "q".to_string(),
                    b: "0".to_string(),
                    farads: params.c_node,
                });
                cards.push(SubcktCard::Capacitor {
                    name: "QB".to_string(),
                    a: "qb".to_string(),
                    b: "0".to_string(),
                    farads: params.c_node,
                });
            }
            cards.push(SubcktCard::Device {
                name: t.name.clone(),
                d: canon(t.d),
                g: canon(t.g),
                s: canon(t.s),
                model: t.model.name().to_string(),
                width_um: t.width_um,
            });
        }
        Subckt {
            name: name.to_string(),
            ports,
            cards,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfet_devices::standard_models;

    fn models() -> HashMap<String, Arc<dyn DeviceModel>> {
        standard_models()
    }

    fn roundtrip(kind: CellKind, params: &CellParams) -> CellTopology {
        let topo = CellTopology::builtin(kind);
        let sub = topo.export_subckt(params, "cell");
        CellTopology::from_subckt(&sub, &[], &models()).expect("exported cell re-imports")
    }

    #[test]
    fn builtin_slots_match_stamp_order() {
        let topo = CellTopology::builtin(CellKind::Tfet6T(AccessConfig::InwardP));
        assert_eq!(topo.device_count(), 6);
        assert_eq!(topo.slots()[0].role, Role::PullUpLeft);
        assert_eq!(topo.slots()[5].role, Role::AccessRight);
        assert!(!topo.slots()[4].n_type, "inward-p access is p-type");
        assert_eq!(topo.access(), AccessConfig::InwardP);
        assert!(!topo.has_read_port());
        assert!(!topo.bl_idle_low());
        let t7 = CellTopology::builtin(CellKind::Tfet7T);
        assert_eq!(t7.device_count(), 7);
        assert_eq!(t7.slots()[6].role, Role::ReadBuffer);
        assert!(t7.has_read_port());
        assert!(t7.bl_idle_low(), "7T write bitlines idle low");
    }

    #[test]
    fn exported_6t_reimports_with_identical_roles() {
        let params = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
        let topo = roundtrip(params.kind, &params);
        assert_eq!(topo.device_count(), 6);
        assert_eq!(topo.access(), AccessConfig::InwardP);
        let builtin = CellTopology::builtin(params.kind);
        for (a, b) in topo.slots().iter().zip(builtin.slots()) {
            assert_eq!(a.role, b.role, "{} vs {}", a.name, b.name);
            assert_eq!(a.n_type, b.n_type);
            assert_eq!(a.name, b.name);
        }
    }

    #[test]
    fn exported_deck_places_byte_identically_to_builder() {
        // The heart of the PR: a builder-exported 6T deck, re-imported and
        // placed, must reproduce the builder's circuit exactly — node
        // names, stamp order, models, widths.
        let params = CellParams::tfet6t(AccessConfig::InwardP).with_beta(0.6);
        let topo = roundtrip(params.kind, &params);
        let mut from_deck = Circuit::new();
        topo.place(&mut from_deck, &params);
        let mut from_builder = Circuit::new();
        crate::cell::build_cell(&mut from_builder, &params);
        assert_eq!(
            from_deck.to_spice("cell"),
            from_builder.to_spice("cell"),
            "deck placement must be byte-identical to the builder"
        );
    }

    #[test]
    fn every_builtin_kind_roundtrips_access_and_ports() {
        for kind in [
            CellKind::Cmos6T,
            CellKind::Tfet6T(AccessConfig::InwardN),
            CellKind::Tfet6T(AccessConfig::InwardP),
            CellKind::Tfet6T(AccessConfig::OutwardN),
            CellKind::Tfet6T(AccessConfig::OutwardP),
            CellKind::Tfet7T,
        ] {
            let params = CellParams::new(kind);
            let topo = roundtrip(kind, &params);
            assert_eq!(topo.access(), kind.access(), "{kind:?}");
            assert_eq!(topo.has_read_port(), kind == CellKind::Tfet7T, "{kind:?}");
        }
    }

    #[test]
    fn missing_port_is_rejected() {
        let params = CellParams::tfet6t(AccessConfig::InwardP);
        let topo = CellTopology::builtin(params.kind);
        let mut sub = topo.export_subckt(&params, "cell");
        sub.ports.retain(|p| p != "wl");
        let err = CellTopology::from_subckt(&sub, &[], &models()).unwrap_err();
        assert!(err.to_string().contains("wl"), "{err}");
    }

    #[test]
    fn duplicated_role_is_rejected() {
        let params = CellParams::tfet6t(AccessConfig::InwardP);
        let topo = CellTopology::builtin(params.kind);
        let mut sub = topo.export_subckt(&params, "cell");
        let dup = sub.cards[0].clone();
        sub.cards.push(dup);
        let err = CellTopology::from_subckt(&sub, &[], &models()).unwrap_err();
        assert!(err.to_string().contains("PullUpLeft"), "{err}");
    }

    #[test]
    fn unknown_model_is_rejected() {
        let params = CellParams::tfet6t(AccessConfig::InwardP);
        let topo = CellTopology::builtin(params.kind);
        let mut sub = topo.export_subckt(&params, "cell");
        if let SubcktCard::Device { model, .. } = &mut sub.cards[0] {
            *model = "mystery".to_string();
        }
        let err = CellTopology::from_subckt(&sub, &[], &models()).unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }

    #[test]
    fn storage_caps_are_absorbed_not_duplicated() {
        let params = CellParams::tfet6t(AccessConfig::InwardP);
        let topo = roundtrip(params.kind, &params);
        let mut c = Circuit::new();
        topo.place(&mut c, &params);
        // Exactly the two canonical storage caps, no extras.
        let deck_text = c.to_spice("cell");
        let cap_lines = deck_text.lines().filter(|l| l.starts_with('C')).count();
        assert_eq!(cap_lines, 2, "{deck_text}");
    }

    #[test]
    fn read_port_ports_must_come_in_pairs() {
        let params = CellParams::new(CellKind::Tfet7T);
        let topo = CellTopology::builtin(params.kind);
        let mut sub = topo.export_subckt(&params, "cell");
        sub.ports.retain(|p| p != "rwl");
        let err = CellTopology::from_subckt(&sub, &[], &models()).unwrap_err();
        assert!(err.to_string().contains("rbl"), "{err}");
    }
}
