package fs

// Block and inode allocation, following the FFS policies the paper's
// file system uses (Section 1.1, [McKusick 84]):
//
//   - a new directory's inode goes to a roomy cylinder group, spreading
//     directories across the disk;
//   - a new file's inode goes to its directory's group;
//   - a file's data blocks go to its inode's group, successive blocks
//     separated by the rotational interleave stride;
//   - when a group fills, allocation spills to other groups by a
//     quadratic rehash.

// allocInode allocates an inode. preferGroup anchors files near their
// directory; spread=true (for new directories) walks a golden-ratio
// rotor over the groups so that directories — and with them their
// files' data — are spread across the whole disk surface, as FFS's
// new-directory policy does. (Without this, a fresh file system packs
// everything into the first few cylinders and seek distances collapse.)
func (f *FS) allocInode(preferGroup int, spread bool) (Ino, error) {
	gi := preferGroup
	if spread {
		f.dirRotor = (f.dirRotor + uint64(len(f.groups))*618/1000 + 1) % uint64(len(f.groups))
		gi = int(f.dirRotor)
	}
	n := len(f.groups)
	for attempt := 0; attempt < n; attempt++ {
		g2 := (gi + attempt*attempt) % n
		g := f.groups[g2]
		if g.freeIno == 0 {
			continue
		}
		for idx, used := range g.inodeUsed {
			if !used {
				g.inodeUsed[idx] = true
				g.freeIno--
				ino := f.inoOf(g2, idx)
				f.inodeChanged(ino)
				return ino, nil
			}
		}
	}
	return 0, ErrNoInodes
}

// freeInode releases an inode slot.
func (f *FS) freeInode(ino Ino) {
	perGroup := len(f.groups[0].inodeUsed)
	g := f.groups[int(ino)/perGroup]
	idx := int(ino) % perGroup
	if g.inodeUsed[idx] {
		g.inodeUsed[idx] = false
		g.freeIno++
	}
	f.inodes[ino] = nil
	f.inodeChanged(ino)
}

// allocData allocates one data block. preferGroup anchors blocks near
// the file's inode; prev (the file's previous block, or -1) enables the
// rotational interleave: the preferred position is prev + stride.
func (f *FS) allocData(preferGroup int, prev int64) (int64, error) {
	// Rotational placement: prev + stride within the same group.
	if prev >= 0 {
		pg := f.groupOf(prev)
		cand := prev + int64(f.prm.Stride)
		if f.groupOf(cand) == pg && cand < f.groups[pg].end {
			g := f.groups[pg]
			if cand >= g.dataStart && !g.dataUsed[cand-g.dataStart] {
				g.dataUsed[cand-g.dataStart] = true
				g.freeData--
				return cand, nil
			}
		}
	}
	n := len(f.groups)
	for attempt := 0; attempt < n; attempt++ {
		gi := (preferGroup + attempt*attempt) % n
		g := f.groups[gi]
		if g.freeData == 0 {
			continue
		}
		// Next-fit from the group rotor.
		size := int64(len(g.dataUsed))
		for i := int64(0); i < size; i++ {
			pos := (g.rotor + i) % size
			if !g.dataUsed[pos] {
				g.dataUsed[pos] = true
				g.freeData--
				g.rotor = (pos + 1) % size
				return g.dataStart + pos, nil
			}
		}
	}
	return 0, ErrNoSpace
}

// freeData releases a data block.
func (f *FS) freeData(b int64) {
	g := f.groups[f.groupOf(b)]
	pos := b - g.dataStart
	if pos < 0 || pos >= int64(len(g.dataUsed)) {
		return // metadata block; never freed
	}
	if g.dataUsed[pos] {
		g.dataUsed[pos] = false
		g.freeData++
	}
}

// blockOf returns the partition block holding file block idx of nd, or
// -1 if the index is unallocated.
func (f *FS) blockOf(nd *inode, idx int64) int64 {
	if idx < NDirect {
		return nd.direct[idx]
	}
	i := idx - NDirect
	if nd.indirect < 0 || i >= int64(len(nd.iblock)) {
		return -1
	}
	return nd.iblock[i]
}

// nblocksOf returns the number of data blocks a file or directory
// occupies. A regular file's inode size field counts blocks; a
// directory's counts entries.
func (f *FS) nblocksOf(nd *inode) int64 {
	if nd.dir {
		per := int64(f.entriesPerBlock())
		return (nd.size + per - 1) / per
	}
	return nd.size
}

// fileBlocks returns all allocated data blocks of a file, in file order.
func (f *FS) fileBlocks(nd *inode) []int64 {
	var out []int64
	for i, n := int64(0), f.nblocksOf(nd); i < n; i++ {
		if b := f.blockOf(nd, i); b >= 0 {
			out = append(out, b)
		}
	}
	return out
}
