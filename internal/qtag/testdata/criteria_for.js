  function criteriaFor(format) {
    if (CRITERIA_OVERRIDE) return CRITERIA_OVERRIDE;
    if (format === 'video') return { area: 0.5, dwellMs: 2000 };
    if (format === 'large-display') return { area: 0.3, dwellMs: 1000 };
    return { area: 0.5, dwellMs: 1000 };
  }
