package dvswitch

import "repro/internal/obs/attr"

// SetHeat attaches (or with nil detaches) the attribution layer's
// cylinder×angle deflection census. Attaching disables the hand-inlined
// clean move loops (see cleanPath) so every deflection is counted; routing
// decisions are unchanged, only nanoseconds differ.
func (c *Core) SetHeat(h *attr.Heat) { c.heat = h }

// SetHeat attaches the deflection census to the kernel-coupled engine.
func (e *Engine) SetHeat(h *attr.Heat) { e.core.SetHeat(h) }

// SetAttr attaches (or with nil detaches) the attribution tracer to the
// cycle-accurate engine. The engine stamps traced packets when the core
// delivers them: only then are the fabric-entry cycle and the hop and
// deflection counts known.
func (e *Engine) SetAttr(t *attr.Tracer) { e.attr = t }

// SetAttr attaches (or with nil detaches) the attribution tracer to the
// analytic model. The model stamps traced packets at Inject time: entry and
// delivery are fully determined when Inject returns, so the fabric stage is
// closed immediately rather than at the delivery event.
func (m *FastModel) SetAttr(t *attr.Tracer) { m.attr = t }
