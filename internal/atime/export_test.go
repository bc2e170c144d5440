package atime

// HalfRange is the boundary between "past" and "future" relative to a
// reference time: t+HalfRange is the division point q in the paper's
// circular diagram.
const HalfRange = 1 << 31
